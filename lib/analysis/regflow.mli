(** Register checks over one core stream's executed path.

    Word-granular over the flat vector register space (XbarIn / XbarOut /
    GPR, honoring each operand's [vec_width]) plus the scalar register
    file. A core branches only on its scalar registers, which the
    symbolic run ({!Equiv.run}) holds concretely, so the pcs it records
    for a stream are the stream's one path for every input. Two walks
    over them:

    - forward: a strict read of a register word that no earlier executed
      instruction wrote is reported as [E-UBD] (error);
    - backward: a write none of whose executions was read before the
      words were overwritten or the stream ended is reported as
      [W-DEADSTORE] (warning).

    The MVM instruction defines the XbarOut vectors of every MVMU in its
    mask and observes the matching XbarIn vectors for liveness only —
    elements past the staged operand are legitimately unwritten, so they
    are exempt from the def-before-use check.

    The pcs the path never executes are summarized as [I-UNREACH]
    (info). A stream the run did not finish gets only the forward walk:
    its later instructions may still read a write or reach a skipped pc.
    Assumes the stream already passed {!Puma_isa.Check.diagnose}. *)

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

val live_walk :
  layout:Puma_isa.Operand.layout ->
  effects array ->
  int array ->
  flip:(pc:int -> int -> bool -> unit) ->
  unit
(** [live_walk ~layout eff trace ~flip] walks [trace] (executed pcs, in
    order; [eff] per pc) backward from its end, where nothing is live:
    at each pc its defs go dead, then its strict and soft uses live.
    [flip ~pc k live] is called for each word [k] whose state changes.
    [W-DEADSTORE] and {!Resource}'s register pressure both read it. *)

val analyze :
  layout:Puma_isa.Operand.layout ->
  tile:int ->
  core:int ->
  finished:bool ->
  Puma_isa.Instr.t array ->
  int array ->
  Diag.t list
(** [analyze ~layout ~tile ~core ~finished code trace] checks the stream
    [code] along [trace], the pcs it executed in order
    ({!Equiv.execution}); [finished] says that [trace] is the whole
    path. *)
