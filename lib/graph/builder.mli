(** The Figure 7 programming interface: a runtime model builder.

    {[
      let m = Builder.create "example" in
      let x = Builder.input m ~name:"x" ~len:128 in
      let y = Builder.input m ~name:"y" ~len:128 in
      let a = Builder.const_matrix m ~name:"A" mat_a in
      let b = Builder.const_matrix m ~name:"B" mat_b in
      let z = Builder.(tanh m (add m (mvm m a x) (mvm m b y))) in
      Builder.output m ~name:"z" z;
      let graph = Builder.finish m
    ]} *)

type t
type value
(** A handle to a vector-valued node. *)

type matrix
(** A handle to a constant weight matrix (reusable across several [mvm]
    applications; all of them share the same crossbars). *)

val create : string -> t
val finish : t -> Graph.t
(** Validates and returns the graph; raises [Invalid_argument] if the
    model is inconsistent. *)

val len : value -> int

val input : t -> name:string -> len:int -> value

val const_vec : t -> float array -> value
(** A constant vector, e.g. a layer bias (preloaded into shared memory at
    configuration time). *)

val const_matrix : t -> name:string -> Puma_util.Tensor.mat -> matrix
val output : t -> name:string -> value -> unit

val mvm : t -> matrix -> value -> value
val add : t -> value -> value -> value
val sub : t -> value -> value -> value
val mul : t -> value -> value -> value
(** Element-wise product. *)

val div : t -> value -> value -> value
val vmin : t -> value -> value -> value
val vmax : t -> value -> value -> value
val relu : t -> value -> value
val sigmoid : t -> value -> value
val tanh : t -> value -> value
val exp : t -> value -> value
val log : t -> value -> value
val add_imm : t -> value -> float -> value
val mul_imm : t -> value -> float -> value
val concat : t -> value list -> value
val slice : t -> value -> offset:int -> len:int -> value
