(** Fixed-point value ranges over the 16-bit datapath.

    The interval transfer functions and the range diagnostics of the
    symbolic run ({!Equiv.run}). The run gives every interned term an
    interval of raw fixed-point values, computed once from its operands'
    intervals with the functions here: VFU ops mirror the simulator's
    exact rounding and clamping, activation LUTs are evaluated at
    interval endpoints (the ROM functions are monotone), and MVMs are
    bounded with the programmed crossbar weights. Intervals then follow
    values through registers, shared memory and channels exactly as the
    run moves them, so a load sees its one writer's value and a receive
    its one send's.

    Diagnostics:
    - [W-SAT] (warning): some execution of a pc creates a term whose
      exact range partly falls outside the representable 16-bit range —
      that execution may clamp.
    - [E-OVERFLOW] (error): every execution of a pc creates a term whose
      exact range lies entirely outside the representable range.
    - [I-RANGE] (info, only with [keep_ranges]): per core stream, the
      hull over its pcs' executions of each register a pc defines,
      grouped over runs of consecutive registers.
    - [W-RANGE-PARTIAL] (warning): the run stopped short (a bail, fuel
      exhaustion or a fifo written by several tiles), so the ranges cover
      only the executed prefix.

    Soundness contract (checked by the property tests): the run is the
    program's execution where {!Order} proves no race and no fifo has
    several senders — {!Equiv}'s caveat. For such a program and any
    input vectors within [input_range], every value the simulator writes
    to a register lies within that pc's reported interval, and no
    operation saturates at a pc that was not flagged. *)

val vlo_top : int
val vhi_top : int

val sat_raw : int -> int
(** Clamp a raw value to the representable range (how the VFU reads an
    operand). *)

(** What creating one term found: its exact range fits ([Clean]), may be
    clamped ([May what]) or is clamped on every value ([Must what]). *)
type flag = Clean | May of string | Must of string

val sat : string -> int -> int -> int * int * flag
(** [sat what lo hi] clamps an exact result interval to the
    representable range and flags what was cut off. *)

val binop : Puma_isa.Instr.alu_op -> int -> int -> int -> int -> int * int * flag
(** [binop op l1 h1 l2 h2] on saturated operand intervals. *)

val unop : Puma_isa.Instr.alu_op -> int -> int -> int * int
(** Unary VFU ops never saturate. *)

val mvm_bound :
  int -> string -> int array -> int array -> int array -> int array -> unit
(** [mvm_bound dim image inl inh out_lo out_hi]: the exact bound of each
    row's dot product over the input box, before rounding and
    saturation. *)

val saturation :
  tile:int -> core:int -> pc:int -> every:bool -> string -> Diag.t
(** [E-OVERFLOW] when [every], [W-SAT] otherwise. *)

val dump :
  layout:Puma_isa.Operand.layout ->
  tile:int ->
  core:int ->
  lo:int array ->
  hi:int array ->
  defined:bool array ->
  Diag.t list
(** [I-RANGE] lines over the combined register space (vector words, then
    scalar registers), one per maximal run of defined registers with the
    same interval. *)
