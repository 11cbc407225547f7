(** Code generation: lowered graph + placement + schedule -> PUMA program.

    Walks the global schedule once, emitting each core's instruction
    subsequence with on-the-fly register allocation ({!Regalloc}), and
    inserting the data-movement glue of Section 5.2:

    - values consumed by another core are stored to the producer tile's
      shared memory with a consumer count covering every local consumer
      core and every remote tile (the Figure 6 synchronization protocol);
    - values consumed in another tile additionally get a [send] in the
      producer tile's control stream and a [receive] in each consumer
      tile's stream, with FIFO ids virtualized per sender
      (Section 4.2) — both placed at the value's position in the global
      linearization, preserving the deadlock-freedom argument of
      Section 5.3.3;
    - network inputs and constant vectors live in sticky (uncounted)
      shared-memory slots written by the host, recorded as I/O bindings.

    An optional batch loop wraps each core stream in SFU-driven control
    flow (used for CNN workloads, Section 2.3.1). *)

type stats = {
  num_loads : int;
  num_stores : int;
  num_sends : int;
  num_receives : int;
  spilled_fraction : float;  (** Fraction of uses served from spills. *)
  smem_high_water : int;  (** Max words allocated in any tile memory. *)
  mvm_instructions : int;
  total_instructions : int;
}

type provenance = {
  core_src : int array array array;
      (** [core_src.(tile).(core).(pc)] = id of the source-graph node the
          instruction was emitted for, or -1 for runtime glue (batch-loop
          control flow, prologue). *)
  tile_src : int array array;  (** Same for tile control streams. *)
}

val generate :
  Puma_hwmodel.Config.t ->
  wrap_batch_loop:bool ->
  Puma_graph.Graph.t ->
  Lgraph.t ->
  Partition.t ->
  Schedule.t ->
  Puma_isa.Program.t * stats * provenance
(** Raises [Failure] when the program does not fit a hardware budget. The
    message is a rendered diagnostic ({!Puma_isa.Diag.to_string}):
    [E-FIFO] when a tile would need more receive FIFOs than exist,
    [E-COUNT] when one value has more consumers than a count holds, and
    [E-SMEM] when a tile's shared memory overflows. *)
