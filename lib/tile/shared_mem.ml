type t = {
  data : int array;
  state : int array;  (* -1 invalid, 0 sticky, n > 0 reads left *)
  (* Bumped by every successful (state-mutating) read or write. A blocked
     load/store/send/receive retried against an unchanged generation is
     guaranteed to block again, so the fast scheduler parks blocked
     entities on this counter instead of re-polling them every pass. *)
  mutable gen : int;
}

let create ~words =
  if words < 0 then invalid_arg "Shared_mem.create: words must be non-negative";
  { data = Array.make words 0; state = Array.make words (-1); gen = 0 }

let generation t = t.gen
let words t = Array.length t.data
let state t ~addr = t.state.(addr)

let check t addr width =
  if addr < 0 || width < 0 || addr + width > Array.length t.data then
    invalid_arg
      (Printf.sprintf "Shared_mem: [%d, %d) out of range of %d words" addr
         (addr + width) (Array.length t.data))

(* Both scans stop at the first word that blocks, so a retried access
   that still blocks costs O(1) in the usual case. *)
let read_blocker t ~addr ~width =
  check t addr width;
  let k = ref addr in
  while !k < addr + width && t.state.(!k) >= 0 do incr k done;
  if !k < addr + width then !k else -1

let write_blocker t ~addr ~width =
  check t addr width;
  let k = ref addr in
  while !k < addr + width && t.state.(!k) <= 0 do incr k done;
  if !k < addr + width then !k else -1

(* The one read body: copy the words and consume counted ones; a word
   whose last read this is becomes invalid. *)
let take t addr width dst dst_pos =
  for i = 0 to width - 1 do
    let k = addr + i in
    dst.(dst_pos + i) <- t.data.(k);
    let s = t.state.(k) in
    if s > 0 then t.state.(k) <- (if s = 1 then -1 else s - 1)
  done;
  t.gen <- t.gen + 1

let read_into t ~addr ~width ~dst ~dst_pos =
  read_blocker t ~addr ~width < 0
  && begin
       take t addr width dst dst_pos;
       true
     end

let read t ~addr ~width =
  if read_blocker t ~addr ~width >= 0 then None
  else begin
    let dst = Array.make width 0 in
    take t addr width dst 0;
    Some dst
  end

let peek t ~addr ~width =
  if read_blocker t ~addr ~width >= 0 then None
  else Some (Array.sub t.data addr width)

let write_from t ~addr ~src ~src_pos ~width ~count =
  check t addr width;
  if count < 0 then invalid_arg "Shared_mem.write: negative count";
  (count = 0 || write_blocker t ~addr ~width < 0)
  && begin
       (* One typed per-word loop stores both arrays. *)
       for i = 0 to width - 1 do
         let k = addr + i in
         t.data.(k) <- src.(src_pos + i);
         t.state.(k) <- count
       done;
       t.gen <- t.gen + 1;
       true
     end

let write t ~addr ~values ~count =
  write_from t ~addr ~src:values ~src_pos:0 ~width:(Array.length values) ~count

let host_write t ~addr ~values = ignore (write t ~addr ~values ~count:0)
