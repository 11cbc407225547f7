(** The happens-before checks over one collection of every stream's
    events.

    Events are each stream's shared-memory loads and stores at immediate
    addresses (core streams) and its sends and receives (tile control
    streams), with their widths, plus the host bindings of each tile.
    {b Halt rule:} a stream's events end at its first [Halt], since
    nothing after it runs, unless the stream has a jump or branch, which
    may lead past it; then every instruction counts.

    The channel and consumer-count checks are not here: they read the
    state the symbolic run ends in ({!Equiv.run}'s [checks]), which is
    exact on loops and register-indirect addresses.

    The happens-before partial order is induced by per-stream program
    order, single-writer shared-memory synchronization (reads block until
    the word's unique writer has produced it) and channel pairing (the
    k-th send on a single-sender fifo synchronizes with the k-th
    receive). It reports:

    - [E-RACE]: HB-unordered accesses to one shared-memory word from
      different streams with at least one write. Only multi-writer words
      (or host-initialized words also written at runtime) can race —
      single-writer words are ordered by the blocking read.
      Register-indirect accesses are not events, so races between
      immediate accesses are the ones reported, and a tile that has
      register-indirect accesses gets one [I-DYNADDR] saying so.
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
    not built. A cyclic graph (a wait cycle, which the run reports as
    [E-DEADLOCK], or an artifact of the approximation) skips the checks
    with an [I-ORDER] note. *)

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

val analyze : ?dump_hb:bool -> Puma_isa.Program.t -> Diag.t list
(** Collect the events once and run the happens-before checks; [dump_hb]
    additionally emits the HB graph's summary and cross-stream edges as
    [I-ORDER] infos. *)
