type t = {
  data : int array;
  valid : bool array;
  count : int array;
  (* Bumped by every successful (state-mutating) read or write. A blocked
     load/store/send/receive retried against an unchanged generation is
     guaranteed to block again, so the fast scheduler parks blocked
     entities on this counter instead of re-polling them every pass. *)
  mutable gen : int;
}

let create ~words =
  if words < 0 then invalid_arg "Shared_mem.create: words must be non-negative";
  {
    data = Array.make words 0;
    valid = Array.make words false;
    count = Array.make words 0;
    gen = 0;
  }

let generation t = t.gen

let words t = Array.length t.data

let in_range t addr width =
  addr >= 0 && width >= 0 && addr + width <= Array.length t.data

(* Validity and overwrite scans stop at the first word that blocks, so a
   retried access that still blocks costs O(1) in the usual case. *)
let ready t addr width =
  let k = ref addr in
  while !k < addr + width && t.valid.(!k) do incr k done;
  !k = addr + width

(* A counted word still awaiting consumers must not be overwritten. *)
let writable t addr width count =
  count = 0
  ||
  let k = ref addr in
  while !k < addr + width && not (t.valid.(!k) && t.count.(!k) > 0) do
    incr k
  done;
  !k = addr + width

let read t ~addr ~width =
  if not (in_range t addr width) then
    invalid_arg (Printf.sprintf "Shared_mem.read: [%d, %d) out of range" addr (addr + width));
  if not (ready t addr width) then None
  else begin
    let values = Array.sub t.data addr width in
    for k = addr to addr + width - 1 do
      if t.count.(k) > 0 then begin
        t.count.(k) <- t.count.(k) - 1;
        if t.count.(k) = 0 then t.valid.(k) <- false
      end
    done;
    t.gen <- t.gen + 1;
    Some values
  end

(* Allocation-free variant of [read] for the pre-decoded fast path: on
   success copies the words into [dst] at [dst_pos] and performs exactly
   the same consumer-count decrements; on failure (some word invalid)
   touches nothing. *)
let read_into t ~addr ~width ~dst ~dst_pos =
  if not (in_range t addr width) then
    invalid_arg (Printf.sprintf "Shared_mem.read: [%d, %d) out of range" addr (addr + width));
  if not (ready t addr width) then false
  else begin
    Array.blit t.data addr dst dst_pos width;
    for k = addr to addr + width - 1 do
      if t.count.(k) > 0 then begin
        t.count.(k) <- t.count.(k) - 1;
        if t.count.(k) = 0 then t.valid.(k) <- false
      end
    done;
    t.gen <- t.gen + 1;
    true
  end

let peek t ~addr ~width =
  if not (in_range t addr width) then
    invalid_arg "Shared_mem.peek: out of range";
  if ready t addr width then Some (Array.sub t.data addr width) else None

let write t ~addr ~values ~count =
  let width = Array.length values in
  if not (in_range t addr width) then
    invalid_arg (Printf.sprintf "Shared_mem.write: [%d, %d) out of range" addr (addr + width));
  if count < 0 then invalid_arg "Shared_mem.write: negative count";
  if not (writable t addr width count) then false
  else begin
    Array.iteri
      (fun i v ->
        let k = addr + i in
        t.data.(k) <- v;
        t.valid.(k) <- true;
        t.count.(k) <- count)
      values;
    t.gen <- t.gen + 1;
    true
  end

(* Allocation-free variant of [write]: takes the values from [src] at
   [src_pos] with the same blocking rule (a counted word still awaiting
   consumers must not be overwritten) and the same per-word data/valid/
   count update order. *)
let write_from t ~addr ~src ~src_pos ~width ~count =
  if not (in_range t addr width) then
    invalid_arg (Printf.sprintf "Shared_mem.write: [%d, %d) out of range" addr (addr + width));
  if count < 0 then invalid_arg "Shared_mem.write: negative count";
  if not (writable t addr width count) then false
  else begin
    for i = 0 to width - 1 do
      let k = addr + i in
      t.data.(k) <- src.(src_pos + i);
      t.valid.(k) <- true;
      t.count.(k) <- count
    done;
    t.gen <- t.gen + 1;
    true
  end

let host_write t ~addr ~values =
  ignore (write t ~addr ~values ~count:0)

let valid t ~addr = t.valid.(addr)
let pending_count t ~addr = t.count.(addr)
