let mean xs =
  let n = Array.length xs in
  assert (n > 0);
  Array.fold_left ( +. ) 0.0 xs /. Float.of_int n

let variance xs =
  let m = mean xs in
  let n = Float.of_int (Array.length xs) in
  Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs /. n

let stddev xs = sqrt (variance xs)

let geomean xs =
  let n = Array.length xs in
  assert (n > 0);
  let acc = Array.fold_left (fun acc x -> assert (x > 0.0); acc +. log x) 0.0 xs in
  exp (acc /. Float.of_int n)

(* Heap sort. Monomorphic in [float array], so no comparison boxes its
   operands, as [Array.sort compare] does on every call. *)
let sort_floats (a : float array) =
  let swap i j =
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  in
  let rec sift root stop =
    let child = (2 * root) + 1 in
    if child < stop then begin
      let child =
        if child + 1 < stop && Float.compare a.(child) a.(child + 1) < 0 then
          child + 1
        else child
      in
      if Float.compare a.(root) a.(child) < 0 then begin
        swap root child;
        sift child stop
      end
    end
  in
  let n = Array.length a in
  for root = (n / 2) - 1 downto 0 do
    sift root n
  done;
  for stop = n - 1 downto 1 do
    swap 0 stop;
    sift 0 stop
  done

let percentile_sorted sorted p =
  let n = Array.length sorted in
  assert (n > 0);
  let rank = p /. 100.0 *. Float.of_int (n - 1) in
  let lo = Float.to_int (Float.of_int (Float.to_int rank) |> Float.min (Float.of_int (n - 1))) in
  let lo = if lo < 0 then 0 else lo in
  let hi = Stdlib.min (lo + 1) (n - 1) in
  let frac = rank -. Float.of_int lo in
  sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))

let percentile xs p =
  let sorted = Array.copy xs in
  sort_floats sorted;
  percentile_sorted sorted p

let relative_error ~reference ~measured =
  assert (reference <> 0.0);
  Float.abs ((measured -. reference) /. reference)

let rmse a b =
  let n = Array.length a in
  assert (n = Array.length b && n > 0);
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. ((a.(i) -. b.(i)) ** 2.0)
  done;
  sqrt (!acc /. Float.of_int n)

let argmax xs =
  assert (Array.length xs > 0);
  let best = ref 0 in
  for i = 1 to Array.length xs - 1 do
    if xs.(i) > xs.(!best) then best := i
  done;
  !best
