(** Binary container format for compiled programs.

    Lets the compiler run once and the resulting artifact be shipped,
    inspected and executed later (the CLI's `compile --output` /
    `exec` flow). The format is explicit and versioned — no OCaml
    marshalling:

    - header: magic "PUMA", format version;
    - the full configuration;
    - per tile: the core streams and tile stream in the 7-byte ISA
      encoding, and the crossbar images as little-endian 16-bit raws
      (copied to and from {!Program.mvmu_image}'s image unchanged, so a
      round trip is byte-identical);
    - the input/output/constant bindings.

    [of_bytes] validates the magic, version and all internal lengths and
    returns [Error] rather than raising on malformed input. *)

val format_version : int

val to_bytes : Program.t -> bytes
val of_bytes : bytes -> (Program.t, string) result

val save : string -> Program.t -> unit
(** Write to a file; raises [Sys_error] on I/O failure. *)

val load : string -> (Program.t, string) result
