(** Dense float vectors and matrices.

    This is the reference numeric substrate: the compiler's reference
    executor and the workload layer use plain float tensors, while the
    compiler quantizes crossbar blocks once ({!Fixed.image_of_mat}).
    Matrices are row-major; [rows] is the output dimension of an MVM
    (y = W x with W of shape [rows] x [cols]). *)

type vec = float array

type mat = { rows : int; cols : int; data : float array }
(** Row-major: element (i, j) is [data.(i * cols + j)]. *)

(** {1 Vectors} *)

val vec_add : vec -> vec -> vec
val vec_mul : vec -> vec -> vec
(** Element-wise product. *)

val dot : vec -> vec -> float

val vec_max_abs_diff : vec -> vec -> float
val vec_rand : Rng.t -> int -> float -> vec
(** [vec_rand rng n amplitude] draws uniform values in [-amplitude, amplitude). *)

(** {1 Matrices} *)

val mat_create : int -> int -> mat
val mat_init : int -> int -> (int -> int -> float) -> mat
val get : mat -> int -> int -> float
val set : mat -> int -> int -> float -> unit
val mvm : mat -> vec -> vec
(** [mvm w x] is the matrix-vector product (length [w.rows]). *)

val mat_transpose : mat -> mat
val mat_rand : Rng.t -> int -> int -> float -> mat
val mat_sub_block : mat -> row:int -> col:int -> rows:int -> cols:int -> mat
(** Extract a block, zero-padding where the block exceeds the matrix. *)
