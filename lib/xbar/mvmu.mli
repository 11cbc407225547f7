(** Matrix-Vector Multiplication Unit: bit-sliced crossbar stack plus the
    XbarIn / XbarOut register interface (Figure 1) and logical input
    shuffling (Section 3.2.3).

    The MVM instruction's [stride] operand re-routes XbarIn registers to
    DACs as a circular rotation: the effective input at DAC row [j] is
    XbarIn register [(j + stride) mod dim]. Sliding-window codegen keeps a
    circular window buffer in XbarIn, writes only the new elements, and
    rotates — reusing ~[(filter-1)/filter] of the inputs without physical
    data movement. *)

type t

val create : Puma_hwmodel.Config.t -> t
(** An unprogrammed MVMU (weights all zero, exact path). *)

val program :
  t -> ?rng:Puma_util.Rng.t -> ?fault:Fault.spec -> string -> unit
(** Configuration-time serial weight write (Section 3.2.5) of a weight
    image, which the stack shares rather than copies. [fault] injects
    realized device/circuit faults into the programmed stack (see
    {!Bitslice.of_image}). *)

val dim : t -> int

val xbar_in : t -> int array
(** The XbarIn registers (raw 16-bit values); mutate to supply inputs. *)

val xbar_out : t -> int array
(** The XbarOut registers, written by {!execute}. *)

val execute : t -> stride:int -> unit
(** Perform the analog MVM: reads XbarIn (rotated by [stride]), writes
    XbarOut. *)

val execute_fast : t -> stride:int -> unit
(** Allocation-free {!execute} for the pre-decoded fast path: exact
    stacks run the integer kernel through reused scratch buffers; noisy
    stacks (write noise or faults) fall back to {!execute}. Results are
    bit-identical to {!execute} in both cases. *)

val mvm : t -> Puma_util.Fixed.t array -> Puma_util.Fixed.t array
(** Convenience: load XbarIn, execute with no shuffling, read XbarOut. *)
