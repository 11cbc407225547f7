(** Channel repair: credit-based sequencing of over-pressured channels.

    Consumes the happens-before analyzer's channel hazards
    ({!Puma_analysis.Order.hazards}: single-sender fifos whose in-flight
    pressure can exceed the receive-FIFO depth, so packets beyond the
    depth wait in the network) and repairs each by threading a credit
    loop: the destination sends a one-word token back on a dedicated ack
    fifo after each receive, and the sender consumes one token before
    every send beyond the first [fifo_depth]. The repaired channel (and
    the ack channel itself) keeps at most [fifo_depth] packets in
    flight, so its buffering is bounded by the receive FIFO; the re-run
    analysis reports zero [E-FIFO-ORDER]. Ordering needs no repair: the
    NoC delivers each channel in order.

    When the credit loop is infeasible (the sender has no free receive
    fifo for the ack channel, or a tile memory cannot fit the token
    words), the pass falls back to fifo splitting: the channel's [n]
    transfers are retargeted round-robin onto [ceil(n / fifo_depth)]
    fifos free at the destination, bounding each subchannel's in-flight
    pressure by the depth without adding any instruction.

    Programs with no flagged channel are returned physically unchanged
    (byte-identical). A flagged channel is skipped — counted in
    {!stats.channels_skipped}, leaving its [E-FIFO-ORDER] for the
    analysis gate — only when both strategies are infeasible. *)

type stats = {
  channels_repaired : int;
  credits_inserted : int;  (** Ack send/receive pairs added. *)
  channels_split : int;
      (** Channels repaired by the fifo-splitting fallback (counted in
          [channels_repaired] too). *)
  channels_skipped : int;
      (** Flagged channels left unrepaired (no free ack fifo at the
          sender and not enough free destination fifos, or a tile memory
          is full). *)
}

val no_repair : stats

val repair :
  Puma_isa.Program.t ->
  provenance:Codegen.provenance ->
  Puma_isa.Program.t * Codegen.provenance * stats
(** Inserted instructions carry provenance [-1] (runtime glue), like the
    batch-loop control flow. *)
