(** The symbolic run behind five gates: the channel and consumer-count
    checks, the register checks, translation validation, value ranges and
    the static cost bound.

    [run] abstractly executes the whole multi-tile program — every core
    stream and tile control stream, with in-order per-channel NoC
    delivery — over {e symbolic} words instead of fixed-point values.
    Each tile's memory is a {!Puma_tile.Shared_mem} holding word ids, so
    loads, stores, sends and receives block, consume and invalidate
    through the simulator's own attribute buffer. Scalar registers are
    concrete, so loops execute exactly, and the run records each stream's
    executed pcs in order ({!Resource} costs a stream as the sum over
    them of {!Puma_arch.Cost}; {!Regflow} walks them for [E-UBD],
    [W-DEADSTORE] and [I-UNREACH], and {!Resource} for register
    pressure). Every interned word carries an interval
    of raw values computed once from its operands' ({!Range}), so the
    same run reports [W-SAT] / [E-OVERFLOW] per pc. The state the run
    ends in gives the channel and consumer-count checks ([run.checks]):
    what is left unconsumed, unreceived or unwritten, and, when the run
    wedges, which blocked streams nothing can unblock.

    [check] compares the run's outputs against a reference: every program
    output word ends up as a provenance DAG (MVM applications of interned
    matrices, ALU/LUT operations, immediates, copies through registers,
    spill slots, shared memory and NoC channels collapse away), which is
    compared, word by word, against the reference dataflow extracted from
    the compiler's lowered graph ({!Puma_compiler.Lgraph.to_reference}).

    The check is intentionally {e independent} of the code generator: the
    reference side re-derives operator encodings and fixed-point immediates
    itself, so a codegen bug (wrong LUT, swapped operands, dropped glue
    copy, stale register reuse, a coalescing mask off by one) shows up as a
    structural mismatch rather than being reproduced on both sides.

    Matching is modulo the rewrites the compiler is allowed to do:
    coalescing grouping (each MVMU's crossbar registers are modelled
    per-element), register allocation and spilling (pure moves are
    transparent), Sequencing credit tokens (constant words that never reach
    an output), batch-loop control flow (scalar registers are concrete, so
    the loop executes exactly), and [Remap] line permutations (the plan
    lives outside {!Puma_isa.Program.t} and is exact in ideal arithmetic).
    Crossbar images are interned by content (their 16-bit raws). Both
    sides read the image lowering quantized once per slot, so an image
    placed on the wrong MVMU is still refuted, and a program reloaded
    through {!Puma_isa.Program_io} validates against a freshly-extracted
    reference. Quantization itself is part of lowering, which the float
    oracle checks, not this proof.

    Soundness caveats (see docs/ANALYSIS.md), shared by every gate but
    the register checks (a stream's path depends only on its own scalar
    registers):
    the run is the program's execution only under the
    scheduler-independence the other passes establish — no shared-memory
    races ([E-RACE]) and no same-fifo multi-sender channels (the run stops
    at the second sender: [W-EQUIV-UNKNOWN] here, [W-RANGE-PARTIAL] in
    [checks]); per-channel NoC delivery is modelled in order, as the NoC
    delivers it. *)

(** {1 The reference dataflow} *)

(** A neutral, topologically ordered dataflow DAG. Node [i]'s
    predecessors all have indices [< i]. Produced by
    {!Puma_compiler.Lgraph.to_reference}; [puma_analysis] deliberately
    does not depend on the compiler. *)

type rpiece = { src : int; src_off : int; piece_len : int; dst_off : int }
(** One copied span of a gather; [src] indexes the node's [preds]. *)

type rop =
  | R_input of { name : string; offset : int }
      (** Words [offset, offset+len) of network input [name]. *)
  | R_const of int array  (** Raw 16-bit fixed-point words. *)
  | R_mvm of { image : string; label : string }
      (** One crossbar-sized block, as a weight image in
          {!Puma_isa.Program.mvmu_image}'s format, applied to the single
          predecessor (zero-padded to the crossbar dim). [label] names the
          block in diagnostics. *)
  | R_alu of Puma_isa.Instr.alu_op
      (** Elementwise; unary ops take one predecessor, binary two. *)
  | R_alui of { op : Puma_isa.Instr.alu_op; imm : int }
      (** Elementwise against a raw fixed-point immediate. *)
  | R_gather of rpiece array
  | R_output of { name : string; offset : int }
      (** Words [offset, offset+len) of network output [name]; single
          predecessor. *)

type rnode = { op : rop; preds : int array; len : int }

type dataflow = rnode array

(** {1 Checking} *)

type verdict =
  | Proved  (** Every output word matches the reference dataflow. *)
  | Refuted
      (** Some output word provably computes something else, or the
          program traps ([E-CHANW], [E-SMEM]) before producing it. *)
  | Unknown
      (** The proof could not be completed (fuel exhausted, undefined
          values reaching outputs, scheduler-dependent channel sharing,
          or a program [Check] rejects). *)

type result = {
  verdict : verdict;
  diags : Diag.t list;
      (** [E-EQUIV] per refutation, [W-EQUIV-UNKNOWN] per obstruction,
          one [I-EQUIV] summary when proved; sorted by {!Diag.compare}. *)
  output_words : int;  (** Reference output words checked. *)
  mismatched_words : int;  (** Words that differ (missing or wrong). *)
  mvm_apps : int;  (** Symbolic MVM applications the program performed. *)
  steps : int;  (** Instructions symbolically retired. *)
}

type execution = {
  trace : int array;
      (** The pcs the stream executed, in order. It may be the run's
          own array, so read it only. *)
  finished : bool;
      (** The stream halted or ran off its end. Otherwise the run
          stopped short or wedged, and [trace] is a prefix. *)
}
(** One stream's path through the run. Its scalar registers are
    concrete, so this is the one path the stream takes for every input:
    {!Resource} costs it and {!Regflow} walks it. *)

type run = {
  equiv : result option;  (** The verdict, when a reference was given. *)
  ranges : Diag.t list;
      (** [W-SAT] / [E-OVERFLOW] per core pc and [I-RANGE] with
          [keep_ranges]; a run that stopped short covers only its
          executed prefix ([checks] says so). *)
  checks : Diag.t list;
      (** [E-CHANW] per receive that met a packet of another width,
          [E-SMEM] at a register-indirect access outside shared memory
          (the run stops there), and the checks over the state the run
          ends in (see docs/ANALYSIS.md): [E-CONSUME], [E-SENDU],
          [E-RBW], [E-RECVU] and [E-DEADLOCK]. A run that stopped short
          (a [Check] error, an [E-SMEM] trap, fuel exhaustion or a fifo
          written by several tiles) gets one
          [W-RANGE-PARTIAL] naming the reason instead: its ranges, the
          register checks and these checks cover only the executed
          prefix. *)
  interval : tile:int -> core:int -> pc:int -> reg:int -> (int * int) option;
      (** With [keep_ranges]: the join over the pc's executions of the
          raw interval of a register it defines, in {!Regflow.effects}'
          combined space (scalar register [s] at [layout.total + s]).
          [tile] is the tile's [tile_index]. *)
  executions : pos:int -> core:int option -> execution option;
      (** Per stream (tile position, [None] for the tile control unit).
          [None] for an empty stream. *)
}

val run :
  ?fuel:int ->
  ?input_range:int * int ->
  ?ranges:bool ->
  ?keep_ranges:bool ->
  ?reference:dataflow ->
  Puma_isa.Program.t ->
  run
(** [run p] symbolically executes [p] once. [fuel] (default 4,000,000)
    bounds the total instructions retired. [input_range] is the
    raw-value interval of every host input word (default: the full
    representable range). [ranges] (default on) computes the
    intervals: off, [run.ranges] is empty and the run costs what the
    comparison alone needs. [keep_ranges] (implies [ranges]) keeps
    per-pc intervals for [interval] and the [I-RANGE] dump. With
    [reference], the outputs are compared against it ({!check}).

    The run trusts {!Puma_isa.Check}: it calls [Check.diagnose] once,
    and a program with any error other than [E-IMEM] stops before its
    first step, with one [W-EQUIV-UNKNOWN] (and one [W-RANGE-PARTIAL] in
    [checks]) naming the first such code. The executor re-checks no
    register, mask, stream kind or immediate address; it checks only
    the values it computes: a register-indirect address ([E-SMEM]), a
    packet's width ([E-CHANW]), a fifo's second sender, fuel and a send
    target's tile index. Never raises on a program [Check] passes or
    rejects. Raises [Invalid_argument] on an empty [input_range]
    ([lo > hi]), which would otherwise turn the range check off. *)

val check : ?fuel:int -> reference:dataflow -> Puma_isa.Program.t -> result
(** [check ~reference p] is [run]'s comparison of [p]'s output
    provenance against [reference]. Fuel exhaustion yields
    [W-EQUIV-UNKNOWN], never a spurious refutation; a program [Check]
    rejects (but for [E-IMEM]) is [Unknown]. *)
