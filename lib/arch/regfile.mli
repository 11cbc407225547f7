(** Per-core register storage with routing across the three register
    spaces.

    Reads and writes are routed by the flat index: the XbarIn segment maps
    onto the MVMUs' XbarIn registers (feeding the DACs), the XbarOut
    segment onto the MVMUs' ADC-side registers, and the rest onto the
    general-purpose ROM-Embedded RAM array. Values are raw 16-bit
    patterns. *)

type t

val create : Puma_isa.Operand.layout -> Puma_xbar.Mvmu.t array -> t

val layout : t -> Puma_isa.Operand.layout

val gpr : t -> int array
(** The general-purpose register backing array (offset
    [layout.gpr_base]); exposed for the pre-decoded fast path, which
    resolves in-space vector operands to direct array views. *)

val read : t -> int -> int
val write : t -> int -> int -> unit

val read_vec : t -> int -> int -> int array
(** [read_vec t base width]. *)

val write_vec : t -> int -> int array -> unit
