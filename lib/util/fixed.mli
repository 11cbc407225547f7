(** 16-bit signed fixed-point arithmetic.

    PUMA performs all inference in 16-bit fixed point (paper §6.1). Values
    are represented as OCaml [int]s holding the raw two's-complement 16-bit
    pattern in the range [min_raw, max_raw]. The binary point position is
    given by {!frac_bits} (a global Q-format, Q3.12 by default: 1 sign bit,
    3 integer bits, 12 fraction bits). All operations saturate rather than
    wrap, which is what a hardware functional unit with saturation logic
    does and what keeps DNN inference numerically stable. *)

type t = private int
(** A 16-bit fixed-point value (raw integer in [-32768, 32767]). *)

val frac_bits : int
(** Number of fraction bits of the Q format (12). *)

val total_bits : int
(** Total width in bits (16). *)

val scale : float
(** [2. ** frac_bits], the value of 1.0 in raw units. *)

val min_raw : int
(** Smallest raw value, -32768. *)

val max_raw : int
(** Largest raw value, 32767. *)

val zero : t
val one : t

val of_raw : int -> t
(** [of_raw r] interprets [r] as a raw value, saturating to the 16-bit
    range. *)

val to_raw : t -> int
(** Raw two's complement value in [-32768, 32767]. *)

val of_float : float -> t
(** Round-to-nearest conversion (ties away from zero) with saturation;
    NaN converts to zero. *)

val to_float : t -> float

val add : t -> t -> t
val sub : t -> t -> t

val mul : t -> t -> t
(** Fixed-point multiply: the 32-bit product is rescaled by [frac_bits]
    with round-to-nearest and saturated. *)

val round_scale : int -> int
(** [round_scale p] rounds [p], carrying [2 * frac_bits] fraction bits, to
    [frac_bits] bits, to nearest with ties away from zero, without
    saturating: [round_scale (-p) = - (round_scale p)]. The range analysis
    bounds products with it. *)

val div : t -> t -> t
(** Fixed-point divide; division by zero saturates to the signed extreme
    of the numerator (hardware-style saturation, no exception). *)

val neg : t -> t
val abs : t -> t
val min : t -> t -> t
val max : t -> t -> t
val compare : t -> t -> int
val equal : t -> t -> bool

val shift_left : t -> int -> t
val shift_right : t -> int -> t
(** Arithmetic shifts on the raw value, saturating on the left shift. *)

val logand : t -> t -> t
val logor : t -> t -> t
val lognot : t -> t

val mul_acc : t array -> t array -> int
(** [mul_acc xs ys] returns the raw 32-bit-style accumulation
    [sum_i raw(xs.(i)) * raw(ys.(i))] without intermediate rounding: this is
    what a crossbar column computes before the final rescale. The result is
    an unsaturated OCaml int in raw*raw units (2*frac_bits fraction bits). *)

val of_acc : int -> t
(** Rescale an accumulator produced by {!mul_acc} back to a 16-bit value
    (round-to-nearest on the low [frac_bits] bits, then saturate). *)

(** {1 Vector kernels}

    Element-wise loops over raw [int array] operands, as the VFU applies
    an instruction: [d.(od + k) <- op a.(oa + k) b.(ob + k)] for [k] from
    [0] to [w - 1] in ascending order, each source raw read through
    {!of_raw}. Equal to the scalar loop element by element, including
    when the destination range overlaps a source range. *)
module Vec : sig
  val add : int array -> int -> int array -> int -> int array -> int -> int -> unit
  val sub : int array -> int -> int array -> int -> int array -> int -> int -> unit
  val mul : int array -> int -> int array -> int -> int array -> int -> int -> unit
  val min : int array -> int -> int array -> int -> int array -> int -> int -> unit
  val max : int array -> int -> int array -> int -> int array -> int -> int -> unit

  val relu : int array -> int -> int array -> int -> int -> unit
  (** [relu a oa d od w]: {!max} of {!zero} and each source raw. *)

  val add_imm : int -> int array -> int -> int array -> int -> int -> unit
  (** [add_imm imm a oa d od w]: {!add} with the immediate [of_raw imm]. *)

  val mul_imm : int -> int array -> int -> int array -> int -> int -> unit

  val of_acc : int array -> int -> int array -> int -> int -> unit
  (** [of_acc a oa d od w]: {!of_acc} of each accumulator, read as is. *)
end

(** {1 Crossbar weight images}

    A block's raws, row-major, one native-endian int16 per weight, in an
    immutable [string] that every consumer can share. *)

val image_of_mat : Tensor.mat -> string
(** The one weight quantizer: {!of_float} of every element. *)

val image_of_sub_block : Tensor.mat -> row:int -> col:int -> dim:int -> string
(** [image_of_sub_block m ~row ~col ~dim] is the image of the [dim] x [dim]
    block of [m] whose top-left weight is ([row], [col]), zero-padded
    where the block runs past [m]'s edge: equal to {!image_of_mat} of that
    padded block, without building it. *)

val image_raw : string -> int -> int
(** [image_raw img k] is the raw of weight [k] (row-major index). *)

val clamp_image : string -> string
(** The image a crossbar's differential pair holds: raws of -32768 (no
    magnitude above 32767 fits) clamped to -32767. Returns [img] itself,
    not a copy, when it holds no -32768. *)

val pp : Format.formatter -> t -> unit
(** Prints as a decimal float. *)

val to_string : t -> string
