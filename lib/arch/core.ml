module Instr = Puma_isa.Instr
module Operand = Puma_isa.Operand
module Energy = Puma_hwmodel.Energy

type mem_iface = {
  load : addr:int -> width:int -> int array option;
  store : addr:int -> values:int array -> count:int -> bool;
}

type stall = Stall_smem_read | Stall_smem_write | Stall_recv_fifo

let stall_name = function
  | Stall_smem_read -> "smem-read"
  | Stall_smem_write -> "smem-write"
  | Stall_recv_fifo -> "recv-fifo"

let stall_index = function
  | Stall_smem_read -> 0
  | Stall_smem_write -> 1
  | Stall_recv_fifo -> 2

let all_stalls = [ Stall_smem_read; Stall_smem_write; Stall_recv_fifo ]
let num_stalls = 3

(* Step codes: a code >= 0 is the occupancy of a retired instruction, so
   a step allocates nothing. The blocked codes are [-2 - stall_index]. *)
let r_halted = -1
let r_blocked_read = -2
let r_blocked_write = -3
let r_blocked_recv = -4

let stall_of_code = function
  | -2 -> Stall_smem_read
  | -3 -> Stall_smem_write
  | -4 -> Stall_recv_fifo
  | r -> invalid_arg (Printf.sprintf "Core.stall_of_code: %d" r)

type t = {
  config : Puma_hwmodel.Config.t;
  layout : Operand.layout;
  regfile : Regfile.t;
  sregs : int array;
  mvmus : Puma_xbar.Mvmu.t array;
  code : Instr.t array;
  costs : Cost.t array;
  rng : Puma_util.Rng.t;
  energy : Energy.t;
  mutable pc : int;
  mutable halted : bool;
  mutable retired : int;
  mutable busy_cycles : int;
}

let create config ?(seed = 1) ~energy code =
  let layout = Operand.layout config in
  let mvmus =
    Array.init config.Puma_hwmodel.Config.mvmus_per_core (fun _ ->
        Puma_xbar.Mvmu.create config)
  in
  {
    config;
    layout;
    regfile = Regfile.create layout mvmus;
    sregs = Array.make Operand.num_scalar_regs 0;
    mvmus;
    code;
    costs = Array.map (Cost.of_instr config layout) code;
    rng = Puma_util.Rng.create seed;
    energy;
    pc = 0;
    halted = false;
    retired = 0;
    busy_cycles = 0;
  }

let config t = t.config
let regfile t = t.regfile
let pc t = t.pc
let halted t = t.halted || t.pc < 0 || t.pc >= Array.length t.code
let retired t = t.retired
let busy_cycles t = t.busy_cycles

let program_mvmu t ~index ?rng ?fault image =
  Puma_xbar.Mvmu.program t.mvmus.(index) ?rng ?fault image

let reset t =
  t.pc <- 0;
  t.halted <- false

let sreg t s = t.sregs.(s)

(* Fast-path internals: accessors and the retirement step shared with the
   pre-decoded executor (Puma_tile.Fastexec), so every mutation of the
   retirement state stays in this module. *)
let layout t = t.layout
let code t = t.code
let sregs t = t.sregs
let mvmus t = t.mvmus
let rng t = t.rng
let force_halt t = t.halted <- true

(* Retire the instruction at [pc] (which is in range): charge its cost
   table entry, move to [target], return its occupancy. *)
let commit t ~target =
  let cost = Array.unsafe_get t.costs t.pc in
  Energy.charge t.energy cost.charges;
  t.pc <- target;
  t.retired <- t.retired + 1;
  t.busy_cycles <- t.busy_cycles + cost.cycles;
  cost.cycles

let resolve_addr t = function
  | Instr.Imm_addr a -> a
  | Instr.Sreg_addr s -> t.sregs.(s)

let retire t = commit t ~target:(t.pc + 1)

let step t ~mem =
  if t.halted then r_halted
  else if t.pc < 0 || t.pc >= Array.length t.code then begin
    t.halted <- true;
    r_halted
  end
  else
    match t.code.(t.pc) with
    | Halt ->
        t.halted <- true;
        r_halted
    | Mvm { mask; filter = _; stride } ->
        Array.iteri
          (fun i m ->
            if mask land (1 lsl i) <> 0 then Puma_xbar.Mvmu.execute m ~stride)
          t.mvmus;
        retire t
    | Alu { op; dest; src1; src2; vec_width } ->
        (match op with
        | Subsample ->
            for k = 0 to vec_width - 1 do
              let v = Regfile.read t.regfile (src1 + (2 * k)) in
              Regfile.write t.regfile (dest + k) v
            done
        | _ when Instr.alu_op_arity op = 1 ->
            for k = 0 to vec_width - 1 do
              let v = Regfile.read t.regfile (src1 + k) in
              Regfile.write t.regfile (dest + k) (Vfu.apply_unary op ~rng:t.rng v)
            done
        | _ ->
            for k = 0 to vec_width - 1 do
              let a = Regfile.read t.regfile (src1 + k) in
              let b = Regfile.read t.regfile (src2 + k) in
              Regfile.write t.regfile (dest + k) (Vfu.apply_binary op a b)
            done);
        retire t
    | Alui { op; dest; src1; imm; vec_width } ->
        for k = 0 to vec_width - 1 do
          let a = Regfile.read t.regfile (src1 + k) in
          Regfile.write t.regfile (dest + k) (Vfu.apply_binary op a imm)
        done;
        retire t
    | Alu_int { op; dest; src1; src2 } ->
        t.sregs.(dest) <- Sfu.apply op t.sregs.(src1) t.sregs.(src2);
        retire t
    | Set { dest; imm } ->
        Regfile.write t.regfile dest imm;
        retire t
    | Set_sreg { dest; imm } ->
        t.sregs.(dest) <- imm;
        retire t
    | Copy { dest; src; vec_width } ->
        for k = 0 to vec_width - 1 do
          Regfile.write t.regfile (dest + k) (Regfile.read t.regfile (src + k))
        done;
        retire t
    | Load { dest; addr; vec_width } -> (
        let a = resolve_addr t addr in
        match mem.load ~addr:a ~width:vec_width with
        | None -> r_blocked_read
        | Some values ->
            Regfile.write_vec t.regfile dest values;
            retire t)
    | Store { src; addr; count; vec_width } ->
        let a = resolve_addr t addr in
        let values = Regfile.read_vec t.regfile src vec_width in
        if mem.store ~addr:a ~values ~count then retire t
        else r_blocked_write
    | Jmp { pc } -> commit t ~target:pc
    | Brn { op; src1; src2; pc } ->
        if Sfu.branch_taken op t.sregs.(src1) t.sregs.(src2) then
          commit t ~target:pc
        else retire t
    | Send _ | Receive _ ->
        invalid_arg "Core.step: tile instruction in core stream"
