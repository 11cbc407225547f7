type entry = {
  cycle : int;
  tile : int;
  core : int;
  instr : Puma_isa.Instr.t;
}

type t = {
  capacity : int;
  buffer : entry option array;
  mutable next : int;
  mutable total : int;
}

let create ?(capacity = 65536) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  { capacity; buffer = Array.make capacity None; next = 0; total = 0 }

let record t entry =
  t.buffer.(t.next) <- Some entry;
  t.next <- (t.next + 1) mod t.capacity;
  t.total <- t.total + 1

let attach t node =
  Node.set_probe node
    (Some
       {
         Node.null_probe with
         on_retire =
           (fun ~now ~tile ~core ~cycles:_ instr ->
             if core >= 0 then record t { cycle = now; tile; core; instr });
       })

let detach node = Node.set_probe node None

let length t = min t.total t.capacity
let total_recorded t = t.total

let entries t =
  let n = length t in
  let start = if t.total <= t.capacity then 0 else t.next in
  List.init n (fun k ->
      match t.buffer.((start + k) mod t.capacity) with
      | Some e -> e
      | None -> assert false)

let unit_counts t =
  let tally = Hashtbl.create 8 in
  List.iter
    (fun e ->
      let u = Puma_isa.Instr.unit_of e.instr in
      Hashtbl.replace tally u (1 + Option.value ~default:0 (Hashtbl.find_opt tally u)))
    (entries t);
  List.filter_map
    (fun u ->
      Option.map (fun n -> (u, n)) (Hashtbl.find_opt tally u))
    Puma_isa.Instr.all_units

let pp_entry layout fmt e =
  Format.fprintf fmt "%10d  tile %2d core %d  %s" e.cycle e.tile e.core
    (Puma_isa.Asm.instr_to_string layout e.instr)

let dump layout t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      Buffer.add_string buf (Format.asprintf "%a@." (pp_entry layout) e))
    (entries t);
  Buffer.contents buf
