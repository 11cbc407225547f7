(** On-chip network model (cycle-approximate, Booksim/Orion role).

    Messages traverse a concentrated 2D mesh (four tiles per router,
    Table 3) with a fixed per-router latency and per-flit serialization
    (32-bit flits, so two 16-bit words per flit);
    energy is charged per word per hop. Delivery is decoupled from
    arrival: the node simulator pops arrived messages and retries ones the
    destination FIFO cannot yet accept. *)

type message = {
  src_tile : int;
  dst_tile : int;
  fifo_id : int;
  payload : int array;
  mutable seq : int;
      (** Per-(src, dst, fifo) injection sequence number. Assigned by
          {!send} (any caller-supplied value is overwritten); used by
          {!confirm_delivered} to assert deliveries follow injection
          order on each channel. *)
}

exception Reordered of string
(** Raised by {!confirm_delivered} when a packet lands out of injection
    order on its (src, dst, fifo) channel — the situation the static
    [E-FIFO-ORDER] analysis exists to rule out. Ordering is only at risk
    when {!requeue} fires: a requeued packet can fall behind a later
    one whose arrival time ties or follows within the retry window. The
    happens-before analyzer guarantees repaired/clean programs keep
    per-channel in-flight pressure at or below [fifo_depth], so delivery
    never requeues and this exception never fires for them. *)

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
(** Inject a message; it arrives at [now + transit_cycles]. Charges NoC
    energy. *)

val pop_arrived : t -> now:int -> message option
(** Pop one message whose arrival time has passed, if any. *)

val requeue : t -> now:int -> message -> unit
(** Destination FIFO full: retry delivery one cycle later (models
    backpressure at the ejection port). *)

val confirm_delivered : t -> message -> unit
(** Record a successful delivery (the destination accepted the packet)
    and assert it is the next one in injection order for its
    (src, dst, fifo) channel; raises {!Reordered} otherwise. Pure
    bookkeeping — no timing or energy effect — so calling it from a run
    loop cannot perturb simulation results. Counters persist for the
    lifetime of the network, so the contract holds across repeated runs
    of the same node. *)

val in_flight : t -> int
val next_arrival : t -> int option
(** Earliest pending arrival time, for simulator scheduling. *)
