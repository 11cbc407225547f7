(** Fault-aware crossbar line remapping.

    Given a fault model and seed, realizes every MVMU's fault map (the
    same deterministic realization {!Puma_sim.Node.create} will inject)
    and permutes each stack's logical matrix rows/columns onto healthy
    physical lines: logical lines with the smallest weight mass — the
    all-zero padding rows/columns of partially-filled blocks first — are
    parked on the faultiest lines, retiring fully-dead lines to those
    spares. The resulting permutations are recorded in the plan's remap
    table; {!Puma_xbar.Bitslice} routes programming and MVM I/O through
    them, so in exact arithmetic a remapped stack computes the same
    product and the only effect is which physical faults land under live
    weights.

    When capacity is insufficient the pass reports Analyze-style
    diagnostics: [E-FAULT] when a live (nonzero) logical line must sit on
    a dead physical line (that output/input is destroyed), [W-FAULT] when
    stuck devices remain under nonzero weights after remapping (degraded
    accuracy). *)

type t = {
  plan : Puma_xbar.Fault.plan;
      (** The plan to hand to {!Puma_sim.Node.create} /
          {!Puma_runtime.Batch.run}: model + seed, with the remap table
          filled in (empty when [remap:false]). *)
  diags : Puma_analysis.Diag.t list;
      (** Capacity diagnostics, sorted; only produced when remapping.
          Locations name each tile by its [tile_index], so a cluster
          shard's diagnostics carry global tile indices. *)
  total_faults : int;
      (** Realized faulty elements over all programmed MVMUs
          ({!Puma_xbar.Fault.count}); independent of remapping. *)
  remapped_mvmus : int;
      (** Stacks that received a non-identity permutation. *)
}

val errors : t -> int
val warnings : t -> int

val build :
  ?remap:bool ->
  model:Puma_xbar.Fault.t ->
  seed:int ->
  Puma_isa.Program.t ->
  t
(** [build ~remap ~model ~seed program] realizes the fault maps of every
    MVMU image in [program] and (with [remap = true], the default)
    computes the healing permutations and diagnostics. [remap:false]
    still realizes and counts faults — the no-mitigation baseline — but
    leaves the table empty and reports no diagnostics. *)
