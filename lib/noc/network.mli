(** On-chip network model (cycle-approximate, Booksim/Orion role).

    Messages traverse a concentrated 2D mesh (four tiles per router,
    Table 3) with a fixed per-router latency and per-flit serialization
    (32-bit flits, so two 16-bit words per flit);
    energy is charged per word per hop.

    Each (src, dst, fifo) channel is one FIFO queue, so messages are
    delivered in injection order by construction, as the receive
    buffer's per-sender FIFOs require (Section 4.2). Delivery is
    decoupled from arrival: a channel's head that the destination FIFO
    cannot yet accept stays first in its channel and is offered again
    one cycle later (backpressure at the ejection port), holding back
    every later message on that channel. *)

type message = {
  src_tile : int;
  dst_tile : int;
  fifo_id : int;
  payload : int array;
}

type t

val create :
  fabric:Fabric.t ->
  Puma_hwmodel.Config.t ->
  energy:Puma_hwmodel.Energy.t ->
  num_tiles:int ->
  t
(** The [fabric] is the one chip-to-chip cost model: the node mapping,
    extra latency and off-chip energy of a message all come from it,
    multiplying per-hop costs along its topology. A single chip whose
    tiles spill past [Config.tiles_per_node] passes an all-to-all fabric
    ({!Puma_sim.Node.create} does), so every cross-node message pays
    exactly one {!Offchip} link. *)

val topology : t -> Topology.t

val fabric : t -> Fabric.t
(** The inter-node fabric given to {!create}. *)

val router_latency : int
(** Cycles per router traversal (4, matching a 4-stage router at the
    Table 3 design point). *)

val words_per_flit : int

val transit_cycles : t -> src:int -> dst:int -> words:int -> int
(** Total network latency for a message: router hops and flit
    serialization, plus {!Fabric.transfer_cycles} when the message
    crosses nodes (the 6.4 GB/s chip-to-chip link per fabric hop). *)

val send : t -> now:int -> message -> unit
(** Inject a message; it arrives at [now + transit_cycles], or one cycle
    after the previous message between the same two tiles if that is
    later. Charges NoC energy. *)

val deliver_arrived : t -> now:int -> (message -> bool) -> bool
(** Offer the head of every channel whose head has arrived by [now] to
    the callback, earliest first. An accepted head ([true]) leaves its
    channel, whose next message is offered once it arrives (in this call
    if it already has). A refused head stays first in its channel, which
    is offered again at [now + 1]. Returns whether any head was
    accepted. *)

val in_flight : t -> int
(** Messages sent and not yet accepted. *)

val next_arrival : t -> int
(** Earliest time a channel head is next offered, for simulator
    scheduling; [max_int] when nothing is in flight. *)
