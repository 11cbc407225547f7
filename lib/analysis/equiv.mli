(** Translation validation: a symbolic equivalence checker proving that a
    compiled program computes the source dataflow.

    [check] abstractly executes the whole multi-tile program — every core
    stream and tile control stream, with the real shared-memory
    consumer-count discipline and in-order per-channel NoC delivery — over
    {e symbolic} words instead of fixed-point values. Every program output
    word ends up as a provenance DAG (MVM applications of interned
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

    Soundness caveats (see docs/ANALYSIS.md): the proof assumes the
    scheduler-independence the other passes establish — no shared-memory
    races ([E-RACE]) and no same-fifo multi-sender channels (those are
    downgraded to [W-EQUIV-UNKNOWN] here); per-channel NoC delivery is
    modelled in order, which the runtime asserts. *)

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
  | Refuted  (** Some output word provably computes something else. *)
  | Unknown
      (** The proof could not be completed (fuel exhausted, undefined
          values reaching outputs, scheduler-dependent channel sharing,
          or a structurally unexecutable program). *)

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

val check : ?fuel:int -> reference:dataflow -> Puma_isa.Program.t -> result
(** [check ~reference p] symbolically executes [p] and compares its
    output provenance against [reference]. [fuel] (default 4,000,000)
    bounds the total instructions retired; exhaustion yields
    [W-EQUIV-UNKNOWN], never a spurious refutation. Never raises on
    malformed programs: anything the executor cannot model soundly
    degrades to [Unknown]. *)
