module Instr = Puma_isa.Instr
module Operand = Puma_isa.Operand
module Energy = Puma_hwmodel.Energy

type mem_iface = {
  load : addr:int -> width:int -> int array option;
  store : addr:int -> values:int array -> count:int -> bool;
}

type stall =
  | Stall_smem_read
  | Stall_smem_write
  | Stall_recv_fifo
  | Stall_mvmu

let stall_name = function
  | Stall_smem_read -> "smem-read"
  | Stall_smem_write -> "smem-write"
  | Stall_recv_fifo -> "recv-fifo"
  | Stall_mvmu -> "mvmu"

let stall_index = function
  | Stall_smem_read -> 0
  | Stall_smem_write -> 1
  | Stall_recv_fifo -> 2
  | Stall_mvmu -> 3

let all_stalls = [ Stall_smem_read; Stall_smem_write; Stall_recv_fifo; Stall_mvmu ]
let num_stalls = 4

type step_result =
  | Retired of { cycles : int; instr : Instr.t }
  | Blocked of stall
  | Halted

(* Preallocated results: a blocked step must not allocate (it is retried
   every scheduler iteration until the dependency resolves). *)
let blocked_smem_read = Blocked Stall_smem_read
let blocked_smem_write = Blocked Stall_smem_write
let blocked_recv_fifo = Blocked Stall_recv_fifo
let blocked_mvmu = Blocked Stall_mvmu

let blocked = function
  | Stall_smem_read -> blocked_smem_read
  | Stall_smem_write -> blocked_smem_write
  | Stall_recv_fifo -> blocked_recv_fifo
  | Stall_mvmu -> blocked_mvmu

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

let retire_to t ~target instr = Retired { cycles = commit t ~target; instr }
let retire t instr = retire_to t ~target:(t.pc + 1) instr

let step t ~mem =
  if t.halted then Halted
  else if t.pc < 0 || t.pc >= Array.length t.code then begin
    t.halted <- true;
    Halted
  end
  else
    let instr = t.code.(t.pc) in
    match instr with
    | Halt ->
        t.halted <- true;
        Halted
    | Mvm { mask; filter = _; stride } ->
        Array.iteri
          (fun i m ->
            if mask land (1 lsl i) <> 0 then Puma_xbar.Mvmu.execute m ~stride)
          t.mvmus;
        retire t instr
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
        retire t instr
    | Alui { op; dest; src1; imm; vec_width } ->
        for k = 0 to vec_width - 1 do
          let a = Regfile.read t.regfile (src1 + k) in
          Regfile.write t.regfile (dest + k) (Vfu.apply_binary op a imm)
        done;
        retire t instr
    | Alu_int { op; dest; src1; src2 } ->
        t.sregs.(dest) <- Sfu.apply op t.sregs.(src1) t.sregs.(src2);
        retire t instr
    | Set { dest; imm } ->
        Regfile.write t.regfile dest imm;
        retire t instr
    | Set_sreg { dest; imm } ->
        t.sregs.(dest) <- imm;
        retire t instr
    | Copy { dest; src; vec_width } ->
        for k = 0 to vec_width - 1 do
          Regfile.write t.regfile (dest + k) (Regfile.read t.regfile (src + k))
        done;
        retire t instr
    | Load { dest; addr; vec_width } -> (
        let a = resolve_addr t addr in
        match mem.load ~addr:a ~width:vec_width with
        | None -> blocked_smem_read
        | Some values ->
            Regfile.write_vec t.regfile dest values;
            retire t instr)
    | Store { src; addr; count; vec_width } ->
        let a = resolve_addr t addr in
        let values = Regfile.read_vec t.regfile src vec_width in
        if mem.store ~addr:a ~values ~count then retire t instr
        else blocked_smem_write
    | Jmp { pc } -> retire_to t ~target:pc instr
    | Brn { op; src1; src2; pc } ->
        if Sfu.branch_taken op t.sregs.(src1) t.sregs.(src2) then
          retire_to t ~target:pc instr
        else retire t instr
    | Send _ | Receive _ ->
        invalid_arg "Core.step: tile instruction in core stream"
