type vec = float array
type mat = { rows : int; cols : int; data : float array }

let binop f a b =
  let n = Array.length a in
  assert (n = Array.length b);
  Array.init n (fun i -> f a.(i) b.(i))

let vec_add = binop ( +. )
let vec_mul = binop ( *. )

let dot a b =
  let n = Array.length a in
  assert (n = Array.length b);
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. (a.(i) *. b.(i))
  done;
  !acc

let vec_max_abs_diff a b =
  let n = Array.length a in
  assert (n = Array.length b);
  let m = ref 0.0 in
  for i = 0 to n - 1 do
    m := Float.max !m (Float.abs (a.(i) -. b.(i)))
  done;
  !m

let vec_rand rng n amplitude =
  Array.init n (fun _ -> Rng.uniform rng (-.amplitude) amplitude)

let mat_create rows cols = { rows; cols; data = Array.make (rows * cols) 0.0 }

let mat_init rows cols f =
  { rows; cols; data = Array.init (rows * cols) (fun k -> f (k / cols) (k mod cols)) }

let get m i j = m.data.((i * m.cols) + j)
let set m i j v = m.data.((i * m.cols) + j) <- v

let mvm m x =
  assert (Array.length x = m.cols);
  Array.init m.rows (fun i ->
      let acc = ref 0.0 in
      let base = i * m.cols in
      for j = 0 to m.cols - 1 do
        acc := !acc +. (m.data.(base + j) *. x.(j))
      done;
      !acc)

let mat_transpose m = mat_init m.cols m.rows (fun i j -> get m j i)
let mat_rand rng rows cols amplitude =
  mat_init rows cols (fun _ _ -> Rng.uniform rng (-.amplitude) amplitude)
