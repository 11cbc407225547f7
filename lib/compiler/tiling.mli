(** Graph tiling (Section 5.2, first step).

    Divides every matrix into MVMU-sized 2D tiles (with zero padding) and
    every vector and operation into segments of at most the crossbar
    dimension, producing the lowered graph. A logical MVM whose matrix
    spans several blocks becomes one [L_mvm] per block plus, for each row
    block, a sum of the per-column-block partials, recorded with
    {!Lgraph.add_sum} so {!Partition} can reshape it to follow the
    placement. *)

val lower : dim:int -> Puma_graph.Graph.t -> Lgraph.t
(** [dim] is the crossbar dimension of the target configuration. *)

val segment_count : dim:int -> int -> int
(** Number of segments of a vector of the given length. *)
