(* Keys and values in two parallel arrays, so a push stores an int and a
   value and allocates nothing until the arrays grow. The sifts move a
   hole instead of swapping, with the same strict comparisons as a
   swapping heap, so equal keys leave in the same order. *)
type 'a t = {
  mutable keys : int array;
  mutable vals : 'a array;
  mutable len : int;
}

let create () = { keys = [||]; vals = [||]; len = 0 }

let push h key v =
  if h.len = Array.length h.keys then begin
    let cap = max 16 (2 * h.len) in
    let keys = Array.make cap 0 and vals = Array.make cap v in
    Array.blit h.keys 0 keys 0 h.len;
    Array.blit h.vals 0 vals 0 h.len;
    h.keys <- keys;
    h.vals <- vals
  end;
  let i = ref h.len in
  h.len <- h.len + 1;
  while !i > 0 && h.keys.((!i - 1) / 2) > key do
    let p = (!i - 1) / 2 in
    h.keys.(!i) <- h.keys.(p);
    h.vals.(!i) <- h.vals.(p);
    i := p
  done;
  h.keys.(!i) <- key;
  h.vals.(!i) <- v

let min_key h = if h.len = 0 then max_int else h.keys.(0)

let pop_value h =
  if h.len = 0 then invalid_arg "Heap.pop_value: empty heap";
  let top = h.vals.(0) in
  h.len <- h.len - 1;
  let n = h.len in
  let key = h.keys.(n) and v = h.vals.(n) in
  let i = ref 0 in
  let continue = ref (n > 0) in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let c = ref !i and ck = ref key in
    if l < n && h.keys.(l) < !ck then begin c := l; ck := h.keys.(l) end;
    if r < n && h.keys.(r) < !ck then c := r;
    if !c <> !i then begin
      h.keys.(!i) <- h.keys.(!c);
      h.vals.(!i) <- h.vals.(!c);
      i := !c
    end
    else continue := false
  done;
  if n > 0 then begin
    h.keys.(!i) <- key;
    h.vals.(!i) <- v
  end;
  top

let size h = h.len
