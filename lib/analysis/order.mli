(** Happens-before analysis: smem races and NoC channel hazards.

    Builds the partial order induced by per-stream program order,
    single-writer shared-memory synchronization (reads block until the
    word's unique writer has produced it) and channel pairing (the k-th
    send on a single-sender fifo synchronizes with the k-th receive),
    then reports:

    - [E-RACE]: HB-unordered accesses to one shared-memory word from
      different streams with at least one write. Only multi-writer words
      (or host-initialized words also written at runtime) can race —
      single-writer words are ordered by the blocking read.
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

    The analysis is exact for linear streams; streams with control flow
    are approximated by static instruction order (noted per stream). *)

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
(** Run the analysis. [dump_hb] additionally emits the computed HB
    graph's summary and cross-stream edges as [I-ORDER] infos. *)
