(** Chip-to-chip interconnect between PUMA nodes (Section 3.2.5).

    A fabric describes how [nodes] chips are wired together and what a
    message pays to cross between them. Latency comes from {!Offchip} —
    the same link the analytical estimator uses — so the functional
    cluster simulation and the estimator can never drift: one fabric hop
    costs exactly [Offchip.transfer_cycles], and each word charges one
    [Offchip] energy event per link ({!offchip_words}).

    Tiles are numbered globally; the fabric maps a tile to its owning
    node by contiguous blocks of [tiles_per_node]. *)

type topology =
  | Ring  (** Bidirectional ring; hop count is the shorter arc. *)
  | Mesh2d  (** Near-square 2D mesh of nodes, dimension-order routing. *)
  | All_to_all  (** Every node pair directly linked (1 hop). *)

val topology_name : topology -> string
val topology_of_string : string -> topology option

type t

val create :
  ?topology:topology ->
  ?zero_cost:bool ->
  nodes:int ->
  tiles_per_node:int ->
  unit ->
  t
(** [zero_cost] makes every cross-node transfer free in both cycles and
    energy while keeping the node mapping — the differential harness uses
    this to prove a partitioned cluster is bit-identical to one big
    node. Default topology is [Mesh2d]. *)

val nodes : t -> int
val topology : t -> topology
val tiles_per_node : t -> int
val zero_cost : t -> bool

val node_of : t -> int -> int
(** Owning node of a global tile index (tiles past the last node's block
    clamp to the last node). *)

val hops : t -> int -> int -> int
(** Node-level link traversals between two node ids (0 for a node to
    itself). *)

val transfer_cycles :
  t -> Puma_hwmodel.Config.t -> src:int -> dst:int -> words:int -> int
(** Extra latency a message between global tiles [src] and [dst] pays on
    the fabric: [hops * Offchip.transfer_cycles]. 0 within a node or on a
    zero-cost fabric. *)

val offchip_words : t -> src:int -> dst:int -> words:int -> int
(** [Offchip] energy events (one per word per link) the message charges. *)
