(** Transcendental function evaluation via ROM-Embedded RAM look-up tables.

    Section 3.4.1: the register file embeds a ROM (one extra wordline per
    row) holding look-up tables for transcendental functions, giving
    area-efficient sigmoid/tanh/log/exp without dedicated digital units.
    Each function is a 1024-entry table over the representable fixed-point
    input range with linear interpolation between adjacent entries (the
    interpolation adder rides on the VFU datapath). *)

val table_entries : int
(** 1024 entries per function table. *)

val eval : Puma_isa.Instr.alu_op -> Puma_util.Fixed.t -> Puma_util.Fixed.t
(** LUT evaluation for [Sigmoid], [Tanh], [Log] and [Exp]; raises
    [Invalid_argument] for non-transcendental ops. [Log] of a non-positive
    value saturates to the most negative representable value.

    The ROM interpolates between the 1024 knots in floating point; as the
    input is 16-bit, each op is evaluated as an exact table of the 65,536
    results of that interpolation, built once per process on first use
    and safe to share between domains. *)

val apply :
  Puma_isa.Instr.alu_op -> int array -> int -> int array -> int -> int -> unit
(** [apply op a oa d od w] sets [d.(od + k)] to the raw of
    [eval op (of_raw a.(oa + k))] for [k] from [0] to [w - 1] ascending.
    [apply op] fetches the table once, so a caller can hoist it out of a
    per-instruction loop; raises [Invalid_argument] as {!eval} does. *)

val reference : Puma_isa.Instr.alu_op -> float -> float
(** The exact float function being tabulated (for accuracy tests). *)

val max_abs_error : Puma_isa.Instr.alu_op -> float
(** Measured maximum absolute error of the table vs. {!reference} over the
    full input range (useful for documenting LUT accuracy). *)
