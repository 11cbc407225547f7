module Instr = Puma_isa.Instr
module Core = Puma_arch.Core
module Cost = Puma_arch.Cost
module Energy = Puma_hwmodel.Energy

type outgoing = {
  target_tile : int;
  fifo_id : int;
  payload : int array;
  issue_cycle : int;
}

type t = {
  index : int;
  energy : Energy.t;
  cores : Core.t array;
  smem : Shared_mem.t;
  recv : Recv_buffer.t;
  tile_code : Instr.t array;
  tile_costs : Cost.t array;
  outgoing : outgoing Queue.t;
  mutable tcu_pc : int;
  mutable tcu_halted : bool;
  (* Lazily built pre-decoded streams (one per core) for the fast path;
     decoding is pure over the immutable code arrays, so the cache never
     needs invalidation. *)
  mutable fast_code : Fastexec.code array option;
}

let create ~smem_words (config : Puma_hwmodel.Config.t) ~index ~energy
    ~core_code ~tile_code =
  if Array.length core_code > config.cores_per_tile then
    invalid_arg "Tile.create: more core streams than cores per tile";
  let cores =
    Array.init config.cores_per_tile (fun i ->
        let code =
          if i < Array.length core_code then core_code.(i) else [||]
        in
        Core.create config ~seed:((index * 31) + i + 1) ~energy code)
  in
  {
    index;
    energy;
    cores;
    smem = Shared_mem.create ~words:smem_words;
    recv = Recv_buffer.create ~num_fifos:config.num_fifos ~depth:config.fifo_depth;
    tile_code;
    tile_costs =
      Array.map
        (Cost.of_instr config (Puma_isa.Operand.layout config))
        tile_code;
    outgoing = Queue.create ();
    tcu_pc = 0;
    tcu_halted = false;
    fast_code = None;
  }

let index t = t.index
let num_cores t = Array.length t.cores
let core t i = t.cores.(i)
let shared_mem t = t.smem
let smem_generation t = Shared_mem.generation t.smem
let recv_buffer t = t.recv

let fast_code t =
  match t.fast_code with
  | Some fc -> fc
  | None ->
      let fc = Array.map (fun core -> Fastexec.decode core t.smem) t.cores in
      t.fast_code <- Some fc;
      fc

(* Retire the control unit's instruction: charge its cost table entry,
   advance the pc, return its occupancy. *)
let retire_tcu t =
  let cost = t.tile_costs.(t.tcu_pc) in
  Energy.charge t.energy cost.charges;
  t.tcu_pc <- t.tcu_pc + 1;
  cost.cycles

let step_tcu t ~now =
  if t.tcu_halted then Core.r_halted
  else if t.tcu_pc < 0 || t.tcu_pc >= Array.length t.tile_code then begin
    t.tcu_halted <- true;
    Core.r_halted
  end
  else
    match t.tile_code.(t.tcu_pc) with
    | Halt ->
        t.tcu_halted <- true;
        Core.r_halted
    | Send { mem_addr; fifo_id; target; vec_width } -> (
        match Shared_mem.read t.smem ~addr:mem_addr ~width:vec_width with
        | None -> Core.r_blocked_read
        | Some payload ->
            let cycles = retire_tcu t in
            Queue.add
              {
                target_tile = target;
                fifo_id;
                payload;
                issue_cycle = now + cycles;
              }
              t.outgoing;
            cycles)
    | Receive { mem_addr; fifo_id; count; vec_width } -> (
        match Recv_buffer.peek t.recv ~fifo:fifo_id with
        | None -> Core.r_blocked_recv
        | Some pkt ->
            if Array.length pkt.payload <> vec_width then
              invalid_arg
                (Printf.sprintf
                   "Tile.step_tcu: receive width %d but packet has %d words"
                   vec_width (Array.length pkt.payload));
            if Shared_mem.write t.smem ~addr:mem_addr ~values:pkt.payload ~count
            then begin
              ignore (Recv_buffer.pop t.recv ~fifo:fifo_id);
              retire_tcu t
            end
            else Core.r_blocked_write)
    | Mvm _ | Alu _ | Alui _ | Alu_int _ | Set _ | Set_sreg _ | Copy _
    | Load _ | Store _ | Jmp _ | Brn _ ->
        invalid_arg "Tile.step_tcu: core instruction in tile stream"

let pop_outgoing t = Queue.take_opt t.outgoing

let deliver t ~fifo ~src_tile ~payload =
  let accepted = Recv_buffer.push t.recv ~fifo { src_tile; payload } in
  if accepted then Energy.add t.energy Fifo (Array.length payload);
  accepted

let all_halted t =
  t.tcu_halted && Array.for_all Core.halted t.cores

let host_write t ~addr ~values = Shared_mem.host_write t.smem ~addr ~values
let host_read t ~addr ~width = Shared_mem.peek t.smem ~addr ~width

let tcu_pc t = t.tcu_pc
let tcu_code t = t.tile_code

let reset t =
  t.tcu_pc <- 0;
  t.tcu_halted <- false;
  Array.iter Core.reset t.cores
