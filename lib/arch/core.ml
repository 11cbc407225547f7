module Instr = Puma_isa.Instr
module Operand = Puma_isa.Operand
module Energy = Puma_hwmodel.Energy
module Latency = Puma_hwmodel.Latency

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

type t = {
  config : Puma_hwmodel.Config.t;
  layout : Operand.layout;
  regfile : Regfile.t;
  sregs : int array;
  mvmus : Puma_xbar.Mvmu.t array;
  code : Instr.t array;
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

let reg_energy_cat t idx : Energy.category =
  match Regfile.space_of t.regfile idx with
  | Xbar_in | Xbar_out -> Xbar_reg
  | Gpr -> Rf

let charge_reg_range t base width =
  (* Vector operands are overwhelmingly within one space; charge by the
     space of the first element. *)
  Energy.add t.energy (reg_energy_cat t base) width

let sreg t s = t.sregs.(s)

(* Fast-path internals: accessors and retirement helpers for the
   pre-decoded executor (Puma_tile.Fastexec). The helpers repeat
   [retire]/[retire_jump] minus the result allocation; keeping them here
   keeps every mutation of the retirement state in one module. *)
let layout t = t.layout
let code t = t.code
let sregs t = t.sregs
let mvmus t = t.mvmus
let rng t = t.rng
let energy t = t.energy
let force_halt t = t.halted <- true

let retire_fast t ~cycles =
  t.pc <- t.pc + 1;
  t.retired <- t.retired + 1;
  t.busy_cycles <- t.busy_cycles + cycles;
  Energy.add t.energy Fetch 1;
  cycles

let retire_jump_fast t ~target ~cycles =
  t.pc <- target;
  t.retired <- t.retired + 1;
  t.busy_cycles <- t.busy_cycles + cycles;
  Energy.add t.energy Fetch 1;
  cycles

let resolve_addr t = function
  | Instr.Imm_addr a -> a
  | Instr.Sreg_addr s -> t.sregs.(s)

let retire t ~cycles instr =
  t.pc <- t.pc + 1;
  t.retired <- t.retired + 1;
  t.busy_cycles <- t.busy_cycles + cycles;
  Energy.add t.energy Fetch 1;
  Retired { cycles; instr }

let retire_jump t ~cycles ~target instr =
  t.pc <- target;
  t.retired <- t.retired + 1;
  t.busy_cycles <- t.busy_cycles + cycles;
  Energy.add t.energy Fetch 1;
  Retired { cycles; instr }

let step t ~mem =
  if t.halted then Halted
  else if t.pc < 0 || t.pc >= Array.length t.code then begin
    t.halted <- true;
    Halted
  end
  else
    let instr = t.code.(t.pc) in
    let c = t.config in
    match instr with
    | Halt ->
        t.halted <- true;
        Halted
    | Mvm { mask; filter = _; stride } ->
        let actives = ref 0 in
        Array.iteri
          (fun i m ->
            if mask land (1 lsl i) <> 0 then begin
              incr actives;
              Puma_xbar.Mvmu.execute m ~stride;
              Energy.add t.energy Mvm 1;
              Energy.add t.energy Xbar_reg (2 * Puma_xbar.Mvmu.dim m)
            end)
          t.mvmus;
        (* Coalesced MVMs on different MVMUs run in parallel: one MVM
           latency regardless of how many mask bits are set. *)
        retire t ~cycles:(Latency.mvm c) instr
    | Alu { op; dest; src1; src2; vec_width } ->
        let arity = Instr.alu_op_arity op in
        (match op with
        | Subsample ->
            for k = 0 to vec_width - 1 do
              let v = Regfile.read t.regfile (src1 + (2 * k)) in
              Regfile.write t.regfile (dest + k) v
            done;
            charge_reg_range t src1 (2 * vec_width)
        | _ when arity = 1 ->
            for k = 0 to vec_width - 1 do
              let v = Regfile.read t.regfile (src1 + k) in
              Regfile.write t.regfile (dest + k) (Vfu.apply_unary op ~rng:t.rng v)
            done;
            charge_reg_range t src1 vec_width
        | _ ->
            for k = 0 to vec_width - 1 do
              let a = Regfile.read t.regfile (src1 + k) in
              let b = Regfile.read t.regfile (src2 + k) in
              Regfile.write t.regfile (dest + k) (Vfu.apply_binary op a b)
            done;
            charge_reg_range t src1 vec_width;
            charge_reg_range t src2 vec_width);
        charge_reg_range t dest vec_width;
        Energy.add t.energy Vfu vec_width;
        if Vfu.is_lut_op op then Energy.add t.energy Lut vec_width;
        retire t ~cycles:(Latency.alu c ~vec_width) instr
    | Alui { op; dest; src1; imm; vec_width } ->
        for k = 0 to vec_width - 1 do
          let a = Regfile.read t.regfile (src1 + k) in
          Regfile.write t.regfile (dest + k) (Vfu.apply_binary op a imm)
        done;
        charge_reg_range t src1 vec_width;
        charge_reg_range t dest vec_width;
        Energy.add t.energy Vfu vec_width;
        retire t ~cycles:(Latency.alu c ~vec_width) instr
    | Alu_int { op; dest; src1; src2 } ->
        t.sregs.(dest) <- Sfu.apply op t.sregs.(src1) t.sregs.(src2);
        Energy.add t.energy Sfu 1;
        retire t ~cycles:Latency.alu_int instr
    | Set { dest; imm } ->
        Regfile.write t.regfile dest imm;
        charge_reg_range t dest 1;
        retire t ~cycles:Latency.set instr
    | Set_sreg { dest; imm } ->
        t.sregs.(dest) <- imm;
        Energy.add t.energy Sfu 1;
        retire t ~cycles:Latency.set instr
    | Copy { dest; src; vec_width } ->
        for k = 0 to vec_width - 1 do
          Regfile.write t.regfile (dest + k) (Regfile.read t.regfile (src + k))
        done;
        charge_reg_range t src vec_width;
        charge_reg_range t dest vec_width;
        retire t ~cycles:(Latency.copy c ~vec_width) instr
    | Load { dest; addr; vec_width } -> (
        let a = resolve_addr t addr in
        match mem.load ~addr:a ~width:vec_width with
        | None -> blocked_smem_read
        | Some values ->
            Regfile.write_vec t.regfile dest values;
            charge_reg_range t dest vec_width;
            Energy.add t.energy Smem vec_width;
            Energy.add t.energy Bus vec_width;
            Energy.add t.energy Attr 1;
            retire t ~cycles:(Latency.load c ~vec_width) instr)
    | Store { src; addr; count; vec_width } ->
        let a = resolve_addr t addr in
        let values = Regfile.read_vec t.regfile src vec_width in
        if mem.store ~addr:a ~values ~count then begin
          charge_reg_range t src vec_width;
          Energy.add t.energy Smem vec_width;
          Energy.add t.energy Bus vec_width;
          Energy.add t.energy Attr 1;
          retire t ~cycles:(Latency.store c ~vec_width) instr
        end
        else blocked_smem_write
    | Jmp { pc } -> retire_jump t ~cycles:Latency.jump ~target:pc instr
    | Brn { op; src1; src2; pc } ->
        Energy.add t.energy Sfu 1;
        if Sfu.branch_taken op t.sregs.(src1) t.sregs.(src2) then
          retire_jump t ~cycles:Latency.branch ~target:pc instr
        else retire t ~cycles:Latency.branch instr
    | Send _ | Receive _ ->
        invalid_arg "Core.step: tile instruction in core stream"
