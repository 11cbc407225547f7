(** Static validation of compiled programs.

    A structural lint run over a {!Program.t}: every violation that would
    make the simulator (or hardware) misbehave is reported with its
    location. The compiler's output is checked in the integration tests;
    hand-written programs and the CLI assembler use it as a front line.
    Deeper semantic checks (dataflow, consumer counts, deadlock) live in
    the [puma_analysis] library, which shares this module's {!Diag.t}
    report type. *)

val diagnose : Program.t -> Diag.t list
(** Empty when the program is structurally well-formed; every finding is
    error severity. Verified properties (stable diagnostic codes in
    brackets, see [docs/ANALYSIS.md]):

    - core streams contain no tile instructions and vice versa [E-STREAM];
    - vector register operands lie within a single register space for
      their full [vec_width] [E-REG]; scalar register indices are in
      range [E-SREG];
    - MVM masks are non-zero and only name existing MVMUs [E-MASK]; MVM
      filter and stride fit their 8-bit fields [E-MVMARG];
    - jump, branch and send targets are within range [E-TARGET];
    - shared-memory addresses fit the tile data memory [E-SMEM]; consumer
      counts fit the encoding [E-COUNT]; FIFO ids exist [E-FIFO];
    - instruction streams fit the core / tile instruction memories
      [E-IMEM];
    - crossbar images name existing cores/MVMUs, at most one image each,
      and hold exactly [2 * dim * dim] bytes [E-IMAGE];
    - I/O and constant bindings name existing tiles and fit the shared
      memory [E-BIND]. *)

val check_exn : Program.t -> unit
(** Raises [Failure] with a readable report if {!diagnose} is non-empty;
    locations render through the shared {!Diag.loc_to_string} formatter. *)
