(** The computational-graph intermediate representation.

    A model is a DAG of vector-valued operations (every node produces one
    vector of statically-known length) plus a table of constant weight
    matrices. Weight matrices are first-class and identity-tracked: several
    MVM nodes may reference the same matrix (weight reuse across LSTM
    time-steps), and the compiler maps all of them onto the same physical
    crossbars. This is the structure the Figure 7 programming interface
    builds and the Section 5 compiler consumes. *)

type binop = Add | Sub | Mul | Div | Min | Max
type unop = Relu | Sigmoid | Tanh | Exp | Log
type immop = Add_imm of float | Mul_imm of float

type op =
  | Input of string
  | Const_vec of float array  (** Constant vector (e.g. a layer bias). *)
  | Mvm of { matrix : int }  (** Single predecessor: the input vector. *)
  | Binop of binop
  | Unop of unop
  | Immop of immop
  | Concat  (** Predecessors concatenated in order. *)
  | Slice of { offset : int }  (** Len-window of the single predecessor. *)
  | Output of string  (** Single predecessor; a network output. *)

type node = { id : int; op : op; preds : int array; len : int }

type matrix = { mat_id : int; mat_name : string; data : Puma_util.Tensor.mat }

type t

val name : t -> string
val nodes : t -> node array
(** Indexed by node id; ids are dense and creation-ordered (topological,
    since predecessors must exist at creation time). *)

val node : t -> int -> node
val num_nodes : t -> int
val matrices : t -> matrix array
val matrix : t -> int -> matrix
val inputs : t -> node list
val outputs : t -> node list

val consumers : t -> int array array
(** [consumers g .(id)] lists the node ids using [id] as a predecessor. *)

val reverse_postorder : t -> int array
(** Reverse postorder of the DAG from its inputs: the schedule order that
    consumes produced values as early as possible (Section 5.3.1). *)

val validate : t -> (unit, string) result
(** Check length consistency of every edge and matrix reference. *)

(** {1 Workload characterization (Table 1)} *)

type stats = {
  num_mvms : int;
  num_vector_ops : int;  (** Linear element-wise ops. *)
  num_nonlinear : int;  (** ReLU and transcendental ops. *)
  num_transcendental : int;
  mvm_macs : int;  (** Total multiply-accumulates in MVM nodes. *)
  vector_elems : int;  (** Total elements produced by vector ops. *)
  weight_params : int;  (** Distinct matrix parameters (reuse counted once). *)
  max_vector_len : int;
}

val stats : t -> stats

val to_dot : t -> string
(** GraphViz rendering of the DAG (MVM nodes labelled with their matrix,
    edges carrying vector widths) for debugging and documentation. *)

(** {1 Construction (used by {!Builder})} *)

val create : string -> t
val add_matrix : t -> name:string -> Puma_util.Tensor.mat -> int
val add_node : t -> op:op -> preds:int array -> len:int -> int
