(** A logical signed 16-bit matrix realized as bit-sliced crossbars.

    Section 3.2.1: a 16-bit MVM combines [16 / bits_per_cell] physical
    crossbars, each storing one [bits_per_cell]-wide slice of the weight
    magnitude. Signed weights use the standard differential encoding: one
    crossbar stack for positive parts and one for negative parts, with the
    digital subtraction done after the ADCs.

    Two evaluation paths:
    - with zero write noise (no [~rng]) and no faults the stack is
      bit-exact w.r.t. the integer matrix-vector product of the quantized
      weights (the ADC is conservatively provisioned to be lossless). It
      keeps only the 16-bit image of those weights, and one native kernel
      computes the exact product from it;
    - with an [~rng] or a [~fault] the physical slice stacks are
      materialized and the column currents are accumulated with the
      stored (noisy/faulted) analog levels, digitized once per slice and
      combined by shift-and-add. The conversion chain itself is
      conservatively provisioned to be lossless (Section 3.2.1), which
      the materialized-but-noise-free case demonstrates by matching the
      exact path bit-for-bit. *)

type t

val of_image :
  Puma_hwmodel.Config.t ->
  ?rng:Puma_util.Rng.t ->
  ?fault:Fault.spec ->
  string ->
  t
(** Program the stack from a [dim x dim] weight image
    ({!Puma_util.Fixed.image_of_mat}). The image is never written; the
    stack keeps a reference to it, so any number of stacks share one
    copy. Only an image holding -32768 gets a private
    {!Puma_util.Fixed.clamp_image} copy. [rng] enables write noise with
    the config's [write_noise_sigma]. [fault] materializes the stack
    (even without an [rng]) and applies the realized device/circuit
    faults: weights are programmed through the spec's remap
    permutations, then conductance drift, stuck devices and dead lines
    are applied to the stored levels, and static ADC offsets perturb
    each slice digitization on the read path. *)

val create :
  Puma_hwmodel.Config.t ->
  ?rng:Puma_util.Rng.t ->
  ?fault:Fault.spec ->
  Puma_util.Tensor.mat ->
  t
(** Quantize a float matrix (shape exactly [dim x dim]) with
    {!Puma_util.Fixed.image_of_mat}, then {!of_image}. *)

val zero : Puma_hwmodel.Config.t -> t
(** An unprogrammed stack: all weights zero, exact path. It stores no
    weight data; every MVM yields zeros. *)

val dim : t -> int

val mvm_raw : t -> int array -> int array
(** [mvm_raw t x_raw] returns per-output accumulators in raw product units
    (2 * frac_bits fraction bits), as produced by the shift-and-add
    reduction; rescale with {!Puma_util.Fixed.of_acc}. *)

val mvm_raw_exact_into : t -> int array -> int array -> unit
(** The exact kernel, writing the raw accumulators into the caller's
    scratch buffer (length [dim]) without allocating. It is what the
    exact {!mvm_raw} path runs, and it always computes the product of the
    quantized weights: on a noisy stack it ignores the physical stacks.
    Inputs outside the 16-bit range are accepted; the sums then wrap
    like OCaml [int] arithmetic. Raises [Invalid_argument] unless both
    vectors have length [dim]. *)

val is_noisy : t -> bool
(** True when physical slice stacks are materialized (created with
    [~rng] and/or [~fault]); the exact fast path is used otherwise. *)

val inject_stuck : t -> Puma_util.Rng.t -> rate:float -> int
(** Stuck-at fault injection: each physical device independently sticks
    at its lowest or highest conductance with probability [rate]
    (yield/endurance failures, cf. the paper's reliability discussion).
    Returns the number of faulted devices; raises [Invalid_argument] on a
    stack without physical devices. *)
