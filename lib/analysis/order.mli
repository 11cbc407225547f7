(** The multi-stream gates: one collection of every stream's events,
    and the checks over it.

    Events are each stream's shared-memory loads and stores at immediate
    addresses (core streams) and its sends and receives (tile control
    streams), with widths and consumer counts, plus the host bindings of
    each tile. {b Halt rule:} a stream's events end at its first [Halt],
    since nothing after it runs, unless the stream has a jump or branch,
    which may lead past it; then every instruction counts.

    Run on every {!analyze} call, over every event:

    - {b matching}: for every channel (destination tile, fifo id), the
      k-th send is paired with the k-th receive. Width mismatches are
      [E-CHANW], unmatched sends [E-SENDU], unmatched receives
      [E-RECVU]. When several tiles write one fifo the interleaving is
      dynamic, so pairing is skipped and [W-FIFOSHARE] (warning) is
      reported with a totals-only check.
    - {b deadlock}: abstract execution of the tile streams with
      non-blocking sends and blocking receives, run to a fixpoint. Any
      cycle in the resulting wait-for graph between wedged tiles is a
      true deadlock and is reported as [E-DEADLOCK] with the cycle's
      tiles, pcs and fifos.
    - {b consumer counts}, mirroring {!Puma_tile.Shared_mem}: a word
      written with a consumer count [n > 0] is read exactly [n] times
      ([E-CONSUME]); every load, send and output binding reads written
      words ([E-RBW]); words with several static writers (including
      input and constant bindings) are not count-checked
      ([W-MULTIWRITE]). A tile with a register-indirect load or store
      gets one [I-DYNADDR] instead: its counts are not checked, and its
      register-indirect accesses are not race-checked.

    Under [~order], the happens-before partial order induced by
    per-stream program order, single-writer shared-memory
    synchronization (reads block until the word's unique writer has
    produced it) and channel pairing (the k-th send on a single-sender
    fifo synchronizes with the k-th receive), which reports:

    - [E-RACE]: HB-unordered accesses to one shared-memory word from
      different streams with at least one write. Only multi-writer words
      (or host-initialized words also written at runtime) can race —
      single-writer words are ordered by the blocking read.
      Register-indirect accesses are not events, so races between
      immediate accesses are the ones reported.
    - [E-FIFO-ORDER]: a (dst, fifo) channel that either receives sends
      from different streams with no HB order between them (the receive
      pairing is then timing-dependent), or is a single-sender channel
      whose in-flight pressure exceeds the receive-FIFO depth. The
      pressure of the j-th send is [1 + #{i < j : NOT hb(recv_i,
      send_j)}]; when it never exceeds [fifo_depth], no delivery finds
      the FIFO full and at most [fifo_depth] packets are ever queued on
      the channel. The NoC delivers each channel in order either way
      ({!Puma_noc.Network}); the criterion bounds buffering.
    - [I-ORDER]: informational notes (control-flow approximation, size
      truncation) and, in dump mode, the HB graph's cross-stream edges.

    The order is exact for linear streams; streams with control flow
    are approximated by static instruction order (noted per stream).
    Its reachability bitsets grow with the square of the event count,
    so beyond 16,384 events the graph leaves out core events (races are
    then not checked; an [I-ORDER] says so), and beyond that again it is
    not built. The checks on the collection always see every event. *)

type transfer = {
  xf_send_pc : int;  (** pc of the k-th send in the sender's stream. *)
  xf_recv_pc : int;  (** pc of the matching receive at the destination. *)
  xf_width : int;
}

type hazard = {
  hz_src : int;  (** The single sending tile. *)
  hz_dst : int;
  hz_fifo : int;
  hz_transfers : transfer array;  (** In pairing (program) order. *)
  hz_max_pressure : int;  (** Max in-flight packets; > [fifo_depth]. *)
}

val hazards : Puma_isa.Program.t -> hazard list
(** Single-sender matched channels whose pressure can exceed the FIFO
    depth — the repairable subset of [E-FIFO-ORDER], consumed by the
    compiler's sequencing pass. Empty when the HB graph is cyclic or too
    large to analyze. *)

val analyze : ?order:bool -> ?dump_hb:bool -> Puma_isa.Program.t -> Diag.t list
(** Collect the events once and run matching, deadlock and consumer
    counts. [order] (default off) adds the happens-before checks;
    [dump_hb] (implies [order]) additionally emits the HB graph's
    summary and cross-stream edges as [I-ORDER] infos. *)
