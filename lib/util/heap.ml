type 'a t = { mutable arr : (int * 'a) array; mutable len : int }

let create () = { arr = [||]; len = 0 }

let swap h i j =
  let tmp = h.arr.(i) in
  h.arr.(i) <- h.arr.(j);
  h.arr.(j) <- tmp

let push h key v =
  if h.len = Array.length h.arr then begin
    let bigger = Array.make (max 16 (2 * h.len)) (key, v) in
    Array.blit h.arr 0 bigger 0 h.len;
    h.arr <- bigger
  end;
  h.arr.(h.len) <- (key, v);
  let i = ref h.len in
  h.len <- h.len + 1;
  while !i > 0 && fst h.arr.((!i - 1) / 2) > fst h.arr.(!i) do
    swap h !i ((!i - 1) / 2);
    i := (!i - 1) / 2
  done

let peek h = if h.len = 0 then None else Some h.arr.(0)
let min_key h = if h.len = 0 then max_int else fst h.arr.(0)

let pop h =
  if h.len = 0 then None
  else begin
    let top = h.arr.(0) in
    h.len <- h.len - 1;
    h.arr.(0) <- h.arr.(h.len);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < h.len && fst h.arr.(l) < fst h.arr.(!smallest) then smallest := l;
      if r < h.len && fst h.arr.(r) < fst h.arr.(!smallest) then smallest := r;
      if !smallest <> !i then begin
        swap h !i !smallest;
        i := !smallest
      end
      else continue := false
    done;
    Some top
  end

let size h = h.len
