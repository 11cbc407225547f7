(** Register dataflow over one core's instruction stream.

    Word-granular over the flat vector register space (XbarIn / XbarOut /
    GPR, honoring each operand's [vec_width]) plus the scalar register
    file. Two {!Absint} passes over the {!Cfg}:

    - forward must-defined analysis: a register word read by an
      instruction before any write reaches it on every path is reported
      as [E-UBD] (error);
    - backward liveness: a write none of whose words is ever read again
      is reported as [W-DEADSTORE] (warning).

    The MVM instruction defines the XbarOut vectors of every MVMU in its
    mask and observes the matching XbarIn vectors for liveness only —
    elements past the staged operand are legitimately unwritten, so they
    are exempt from the def-before-use check.

    Unreachable instructions are skipped by both passes and summarized as
    [I-UNREACH] (info). Assumes the stream already passed
    {!Puma_isa.Check.diagnose}. *)

type effects = {
  defs : (int * int) list;
  strict : (int * int) list;
  soft : (int * int) list;
}
(** Register effects of one instruction as [(base, width)] ranges over
    the combined register space (vector words [0, layout.total), then
    scalar registers at [layout.total + s]). [strict] uses participate in
    the def-before-use check; [soft] uses only keep values live. *)

val effects : Puma_isa.Operand.layout -> Puma_isa.Instr.t -> effects

val reg_name : Puma_isa.Operand.layout -> int -> string
(** Render a combined-space register index (e.g. ["xin0[3]"], ["r12"],
    ["s2"]). *)

type flow = {
  cfg : Cfg.t;
  eff : effects array;  (** Per pc. *)
  live_out : Absint.Bset.t option array;
      (** Per-block live-out sets (the backward-liveness fixpoint). *)
}
(** One stream's CFG, effects and liveness; {!Analyze.program} builds it
    once per core stream for both {!analyze} and {!Resource.estimate}. *)

val flow : layout:Puma_isa.Operand.layout -> Puma_isa.Instr.t array -> flow

val analyze :
  layout:Puma_isa.Operand.layout -> tile:int -> core:int -> flow -> Diag.t list
