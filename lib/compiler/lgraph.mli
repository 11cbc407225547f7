(** The lowered (tiled) graph: the compiler's working IR.

    Section 5.2 first step: tensors are divided into 2D tiles the size of
    one MVMU and vectors/operations are divided accordingly. Every lowered
    node produces a vector {e segment} of length at most the crossbar
    dimension. MVM nodes reference {e slots} — one slot per (matrix,
    row-block, column-block), each occupying exactly one physical MVMU;
    several MVM nodes may reference the same slot (weight reuse across
    time-steps executes serially on the same crossbars). *)

type lop =
  | L_input of { name : string; offset : int }
      (** Segment [offset, offset+len) of a network input. *)
  | L_const of float array  (** Constant segment, preloaded by the host. *)
  | L_mvm of { slot : int }  (** Single pred: the column input segment. *)
  | L_binop of Puma_graph.Graph.binop
  | L_unop of Puma_graph.Graph.unop
  | L_immop of Puma_graph.Graph.immop
  | L_gather of piece array
      (** Assemble a segment from pieces of predecessor segments; [preds]
          lists the distinct sources indexed by [piece.src]. *)
  | L_output of { name : string; offset : int }

and piece = { src : int; src_off : int; piece_len : int; dst_off : int }
(** [src] indexes into the node's [preds] array. *)

type lnode = { id : int; op : lop; preds : int array; len : int; src : int }
(** [src] is the source-graph node this lowered node was derived from
    ([-1] when synthesized without a source), threaded through codegen
    for layer-level provenance. *)

type slot = {
  slot_id : int;
  matrix : int;  (** Graph matrix id. *)
  row_block : int;
  col_block : int;
  block : Puma_util.Tensor.mat;  (** dim x dim, zero-padded. *)
}

type t

val create : dim:int -> t
val dim : t -> int
val add_slot :
  t -> matrix:int -> row_block:int -> col_block:int -> source:Puma_util.Tensor.mat -> int
(** Returns the existing slot id if (matrix, row, col) was already added;
    otherwise cuts the slot's zero-padded block out of [source], the
    whole matrix. *)

val add_node : ?src:int -> t -> op:lop -> preds:int array -> len:int -> int

type sum_tree = Term of int | Plus of sum_tree * sum_tree

val add_sum : ?src:int -> t -> terms:int array -> len:int -> int
(** The sum of [terms]: the term itself when there is one, otherwise
    k-1 [Add] nodes folding the terms left to right, recorded (terms and
    add ids) so {!reshape_sums} can regroup them. Returns the id of the
    result. *)

val reshape_sums : t -> (int array -> sum_tree) -> unit
(** Re-wire every recorded sum's [Add] nodes, in place, into the tree the
    function gives for its terms; the tree's leaves must be exactly those
    terms. The adds are numbered in post-order, so preds keep smaller ids
    than their consumers and the root keeps the id the sum's consumers
    reference. Arrays from earlier {!nodes} calls keep the old shape. *)

val nodes : t -> lnode array
val node : t -> int -> lnode
val num_nodes : t -> int
val slots : t -> slot array
val slot : t -> int -> slot
val num_slots : t -> int

val consumers : t -> int array array

val levels : t -> int array
(** Longest-path depth of each node from the sources. Nodes with equal
    level are guaranteed independent — the conservative independence test
    used by MVM coalescing. *)

val reverse_postorder : t -> int array
(** A reverse postorder of the whole graph, which consumes values soon
    after production. {!Schedule} breaks priority ties by position in it
    when it builds the global linearization (Section 5.3). *)

val to_reference :
  matrix_name:(int -> string) -> t -> Puma_analysis.Equiv.dataflow
(** Extract the reference dataflow the translation validator
    ({!Puma_analysis.Equiv}) checks compiled programs against.
    [matrix_name] maps a graph matrix id to its name (for diagnostics).
    The op encodings, fixed-point immediates and crossbar images (one
    quantization per slot) are re-derived here, independently of
    {!Codegen}, so a codegen mapping bug is refuted rather than
    reproduced on both sides. *)
