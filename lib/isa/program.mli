(** Compiled PUMA programs: one instruction stream per core plus one per
    tile control unit, and the constant crossbar contents.

    A program is the complete artifact the compiler hands to the simulator:
    instruction streams, the quantized weights to serially write into each
    MVMU at configuration time (Section 3.2.5), and the addresses where the
    host deposits network inputs / collects outputs in tile shared
    memories. *)

type mvmu_image = {
  core_index : int;  (** Core within the tile. *)
  mvmu_index : int;  (** MVMU within the core. *)
  image : string;
      (** The dim x dim zero-padded block as 16-bit raws, row-major, one
          native-endian int16 per weight (2 * dim * dim bytes; see
          {!Puma_util.Fixed.image_of_mat}). Images are never mutated:
          every node, stack and analysis built from the program reads
          this one string. *)
}

type io_binding = {
  name : string;  (** Graph-level vector name. *)
  tile : int;
  mem_addr : int;  (** Word address in the tile's shared memory. *)
  length : int;
  offset : int;  (** Offset of this fragment within the logical vector. *)
}

type tile_program = {
  tile_index : int;
  core_code : Instr.t array array;  (** Indexed by core within tile. *)
  tile_code : Instr.t array;  (** send/receive stream. *)
  mvmu_images : mvmu_image list;
}

type t = {
  config : Puma_hwmodel.Config.t;
  tiles : tile_program array;
  inputs : io_binding list;
  outputs : io_binding list;
  constants : (io_binding * int array) list;
      (** Constant vectors (raw 16-bit fixed patterns) the host deposits
          into tile shared memories at configuration time, alongside the
          crossbar weight writes. *)
}

val num_tiles : t -> int
val num_cores : t -> int
(** Total cores with a nonempty instruction stream. *)

val tile_busy : tile_program -> bool
(** The tile has a nonempty core or tile instruction stream. *)

val tiles_used : t -> int
(** Occupied tiles ({!tile_busy}) — the count static (leakage/clock)
    energy is billed for. *)

val num_instrs : t -> int
(** Total static instructions (core + tile streams). *)

val all_core_instrs : t -> Instr.t list
val all_tile_instrs : t -> Instr.t list

val iter_instrs : t -> (Instr.t -> unit) -> unit

val footprint : t -> int -> int
(** [footprint p] maps a tile (by position or [tile_index]) to the number
    of leading shared-memory words its instructions and I/O bindings can
    touch: one past the highest static access, the whole capacity for a
    tile with a register-indirect load or store, never more than
    capacity. The simulator sizes each tile's shared memory to it and the
    static gates size their per-tile state to it; out-of-range checks
    still compare against capacity. *)
