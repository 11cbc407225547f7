(** Hierarchical graph partitioning (Section 5.2).

    Assigns every MVMU slot to a physical (tile, core, MVMU) and every
    non-MVM lowered node to a (tile, core). The locality strategy follows
    the paper's priority: slots feeding the same outputs (same matrix and
    row block) are packed together first, then slots reading the same
    inputs (same column block), then producer-consumer neighbours —
    realized by packing slots in (matrix, row-block, column-block) order.
    The random strategy (the Table 8 baseline) shuffles slots before
    packing. Once slots are placed, every recorded partial-sum reduction
    ({!Lgraph.add_sum}) is reshaped in place to follow them: each core
    folds its own partials, then core sums combine as a balanced tree
    within a tile, tile sums within a node, and node sums last — as many
    boundary crossings as a chain, at logarithmic depth. Non-MVM nodes
    are placed by demand: each node goes to the core of its first
    consumer (computed in reverse topological order), so values are
    produced where they are used.

    With a {!cluster}, placement becomes node-aware: slots are first
    assigned to cluster nodes (layer-pipelined contiguous runs or
    tensor-sharded by row block), then packed densely within each node's
    contiguous block of [tiles_per_node] global tiles. Cut edges whose
    endpoints land on different nodes become inter-node transfers on the
    {!Puma_noc.Fabric}. *)

type strategy = Locality | Random of int  (** Random carries a seed. *)

type scheme =
  | Pipelined
      (** Contiguous layer runs per node (broken at matrix boundaries when
          balance allows, at node capacity always). *)
  | Sharded
      (** Row blocks scatter round-robin, so every node computes a slice
          of every layer and cut edges carry partial results. *)

val scheme_name : scheme -> string
val scheme_of_string : string -> scheme option

type cluster = { nodes : int; scheme : scheme }

type place = {
  tile : int;
  core : int;
  node : int;  (** Owning cluster node ([tile / tiles_per_node]). *)
}

type t = {
  config : Puma_hwmodel.Config.t;
  slot_mvmu : (int * int * int) array;
      (** Per slot: (tile, core, mvmu-within-core). Tiles are global. *)
  node_place : place array;  (** Per lowered node. *)
  tiles_used : int;
  cores_used : int;
  nodes_used : int;
      (** Cluster nodes the placement spans (1 without a cluster on
          models that fit one node). *)
  tiles_per_node : int;
      (** Global tile stride between consecutive nodes' blocks. *)
}

val partition :
  ?cluster:cluster -> Puma_hwmodel.Config.t -> strategy -> Lgraph.t -> t
(** Without [cluster], models larger than one node spill onto further
    nodes (tiles beyond [tiles_per_node] belong to the next node). Each
    budget it cannot meet raises [Failure] carrying a rendered
    diagnostic ({!Puma_isa.Diag.fail}): [E-MAXNODES] beyond a 64-node
    sanity cap; with [cluster], [E-NODES] when the model does not fit the
    requested node count (the message names the minimum) and [E-PLACE]
    when the scheme puts more MVMUs on one node than it holds. *)

val mvmu_of_slot : t -> int -> int
(** MVMU index within its core. *)

type edge_stats = {
  intra_core : int;  (** Producer-consumer edges within one core. *)
  cross_core : int;  (** Edges crossing cores within a tile. *)
  cross_tile : int;  (** Edges crossing tiles (includes cross-node). *)
  cross_node : int;  (** Subset of [cross_tile] crossing cluster nodes. *)
}

val edge_stats : t -> Lgraph.t -> edge_stats
(** Communication footprint of a placement (the Table 8 graph-partitioning
    metric: fewer loads/stores/sends/receives). *)
