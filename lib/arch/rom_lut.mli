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
    value saturates to the most negative representable value. *)

val table : Puma_isa.Instr.alu_op -> float array
(** The table (built at start-up) for one transcendental op, for callers
    that hoist the per-op lookup out of a per-element loop; raises
    [Invalid_argument] for non-transcendental ops. *)

val eval_with : float array -> Puma_util.Fixed.t -> Puma_util.Fixed.t
(** [eval_with (table op) x] = [eval op x], with the identical float
    chain (bit-identical results). *)

val reference : Puma_isa.Instr.alu_op -> float -> float
(** The exact float function being tabulated (for accuracy tests). *)

val max_abs_error : Puma_isa.Instr.alu_op -> float
(** Measured maximum absolute error of the table vs. {!reference} over the
    full input range (useful for documenting LUT accuracy). *)
