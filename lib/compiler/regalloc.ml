module Instr = Puma_isa.Instr
module Operand = Puma_isa.Operand

type emit = Instr.t -> unit

type state = {
  len : int;
  mutable reg : int option;  (** Offset within the GPR segment. *)
  mutable reg_size : int;  (** Allocated (power-of-two) size. *)
  mutable spill : (int * bool) option;  (** (smem addr, persistent). *)
  mutable next_uses : int list;
  mutable ever_resident : bool;
}

type t = {
  layout : Operand.layout;
  capacity : int;
  alloc_smem : int -> int;
  emit : emit;
  mutable free : (int * int) list;  (** (offset, len), sorted by offset. *)
  values : (int, state) Hashtbl.t;
  mutable spill_loads : int;
  mutable spill_stores : int;
  mutable total_uses : int;
}

let create ~layout ~alloc_smem ~emit =
  let capacity = Operand.size_of layout Gpr in
  {
    layout;
    capacity;
    alloc_smem;
    emit;
    free = [ (0, capacity) ];
    values = Hashtbl.create 64;
    spill_loads = 0;
    spill_stores = 0;
    total_uses = 0;
  }

let state t id =
  match Hashtbl.find_opt t.values id with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Regalloc: unknown value %d" id)

let set_next_uses t ~id ~positions =
  match Hashtbl.find_opt t.values id with
  | Some s -> s.next_uses <- positions
  | None ->
      Hashtbl.add t.values id
        {
          len = 0;
          reg = None;
          reg_size = 0;
          spill = None;
          next_uses = positions;
          ever_resident = false;
        }

(* Free-list helpers: insert keeping order and coalescing neighbours. *)
let release t off len =
  let rec insert = function
    | [] -> [ (off, len) ]
    | (o, l) :: rest when off < o ->
        if off + len = o then (off, len + l) :: rest else (off, len) :: (o, l) :: rest
    | (o, l) :: rest ->
        if o + l = off then
          match insert_after (o, l + len) rest with r -> r
        else (o, l) :: insert rest
  and insert_after (o, l) = function
    | (o2, l2) :: rest when o + l = o2 -> (o, l + l2) :: rest
    | rest -> (o, l) :: rest
  in
  t.free <- insert t.free

(* Allocations are rounded to powers of two and placed on size-aligned
   boundaries. With same-or-smaller-size neighbours this never fragments:
   any request fits whenever enough non-pinned values can be evicted,
   because pinned blocks occupy whole aligned slots. *)
let reg_words n =
  let rec go p = if p >= n then p else go (2 * p) in
  go 1

let try_claim t len =
  let size = reg_words len in
  let rec go acc = function
    | [] -> None
    | (o, l) :: rest ->
        let a = (o + size - 1) / size * size in
        if a + size <= o + l then begin
          let before = if a > o then [ (o, a - o) ] else [] in
          let after = if o + l > a + size then [ (a + size, o + l - a - size) ] else [] in
          t.free <- List.rev_append acc (before @ after @ rest);
          Some a
        end
        else go ((o, l) :: acc) rest
  in
  go [] t.free

let gpr_flat t off = Operand.gpr t.layout off

(* Evict the resident value with the farthest next use (Belady). Values in
   [exclude] and values with no register are not candidates. *)
let evict_one t ~exclude =
  let best = ref None in
  Hashtbl.iter
    (fun id s ->
      if s.reg <> None && not (List.mem id exclude) then begin
        let next = match s.next_uses with [] -> max_int | u :: _ -> u in
        match !best with
        | Some (_, _, n) when n >= next -> ()
        | _ -> best := Some (id, s, next)
      end)
    t.values;
  match !best with
  | None -> false
  | Some (_, s, _) ->
      let off = Option.get s.reg in
      (* Write back only if no valid spill copy exists and the value is
         still needed. *)
      (if s.next_uses <> [] && s.spill = None then begin
         let addr = t.alloc_smem s.len in
         t.emit
           (Instr.Store
              {
                src = gpr_flat t off;
                addr = Instr.Imm_addr addr;
                count = 0;
                vec_width = s.len;
              });
         t.spill_stores <- t.spill_stores + 1;
         s.spill <- Some (addr, true)
       end);
      s.reg <- None;
      release t off s.reg_size;
      true

let claim t len ~exclude =
  let rec go () =
    match try_claim t len with
    | Some off -> off
    | None ->
        if evict_one t ~exclude then go ()
        else
          Puma_isa.Diag.fail ~code:"E-REGFILE"
            "cannot fit a %d-word value in a %d-word register file even \
             after evicting everything"
            len t.capacity
  in
  go ()

let define t ~id ~len ~pos:_ ~exclude =
  let s =
    match Hashtbl.find_opt t.values id with
    | Some s when s.len = 0 ->
        (* Created by set_next_uses; fill in the length. *)
        let s' = { s with len } in
        Hashtbl.replace t.values id s';
        s'
    | Some s -> s
    | None ->
        let s =
          {
            len;
            reg = None;
            reg_size = 0;
            spill = None;
            next_uses = [];
            ever_resident = false;
          }
        in
        Hashtbl.add t.values id s;
        s
  in
  let off = claim t len ~exclude:(id :: exclude) in
  s.reg <- Some off;
  s.reg_size <- reg_words len;
  s.ever_resident <- true;
  gpr_flat t off

let add_external t ~id ~len ~addr ~persistent =
  let s =
    match Hashtbl.find_opt t.values id with
    | Some s when s.len = 0 ->
        let s' = { s with len } in
        Hashtbl.replace t.values id s';
        s'
    | Some s -> s
    | None ->
        let s =
          {
            len;
            reg = None;
            reg_size = 0;
            spill = None;
            next_uses = [];
            ever_resident = false;
          }
        in
        Hashtbl.add t.values id s;
        s
  in
  s.spill <- Some (addr, persistent)

let use t ~id ~pos:_ ~exclude =
  let s = state t id in
  t.total_uses <- t.total_uses + 1;
  match s.reg with
  | Some off -> gpr_flat t off
  | None -> (
      match s.spill with
      | None ->
          failwith
            (Printf.sprintf
               "Regalloc: value %d is neither resident nor in memory" id)
      | Some (addr, persistent) ->
          let off = claim t s.len ~exclude:(id :: exclude) in
          s.reg <- Some off;
          s.reg_size <- reg_words s.len;
          t.emit
            (Instr.Load
               {
                 dest = gpr_flat t off;
                 addr = Instr.Imm_addr addr;
                 vec_width = s.len;
               });
          (* A reload after prior residency is a spill access; the first
             load of an external value is ordinary data movement. *)
          if s.ever_resident then t.spill_loads <- t.spill_loads + 1;
          s.ever_resident <- true;
          if not persistent then s.spill <- None;
          gpr_flat t off)

(* Element-wise operations may write their destination over a dying
   source operand (the VFU reads element k before writing it), halving
   the register requirement of chained vector arithmetic. *)
let try_inplace t ~src ~dst ~len ~pos =
  match Hashtbl.find_opt t.values src with
  | Some s
    when s.reg <> None
         && List.for_all (fun u -> u <= pos) s.next_uses
         && reg_words len <= s.reg_size -> (
      match Hashtbl.find_opt t.values dst with
      | Some d when d.reg = None ->
          let d = if d.len = 0 then { d with len } else d in
          Hashtbl.replace t.values dst d;
          d.reg <- s.reg;
          d.reg_size <- s.reg_size;
          d.ever_resident <- true;
          s.reg <- None;
          Option.map (gpr_flat t) d.reg
      | Some _ -> None
      | None ->
          let d =
            {
              len;
              reg = s.reg;
              reg_size = s.reg_size;
              spill = None;
              next_uses = [];
              ever_resident = true;
            }
          in
          Hashtbl.add t.values dst d;
          s.reg <- None;
          Option.map (gpr_flat t) d.reg)
  | Some _ | None -> None

let consume_use t ~id ~pos =
  let s = state t id in
  (match s.next_uses with
  | u :: rest when u = pos -> s.next_uses <- rest
  | u :: rest when u < pos ->
      (* Several uses in one instruction share a position. *)
      let rec drop = function
        | v :: vs when v <= pos -> drop vs
        | vs -> vs
      in
      s.next_uses <- drop (u :: rest)
  | _ -> ());
  if s.next_uses = [] then
    match s.reg with
    | Some off ->
        s.reg <- None;
        release t off s.reg_size
    | None -> ()

let spill_loads t = t.spill_loads
let spill_stores t = t.spill_stores
let total_uses t = t.total_uses
