(** Shared tile-memory consumer-count analysis.

    Statically mirrors the runtime discipline of
    {!Puma_tile.Shared_mem}: every word written with a consumer count
    [n > 0] must be read exactly [n] times, reads must be covered by some
    write (instruction, input/constant binding, or tile [Receive]), and
    output bindings must collect written words. The compiler's bump
    allocator gives each word a single static writer, so static read
    multiplicity equals dynamic consumption even inside the batch loop
    (the loop scales writes and reads together).

    Codes emitted:
    - [E-CONSUME] (error): a counted write's words are consumed by a
      different number of static loads/sends than its count;
    - [E-RBW] (error): a load, send, or output binding touches a word
      nothing writes;
    - [W-MULTIWRITE] (warning): several static writers share a word, so
      consumer counts cannot be checked there;
    - [I-DYNADDR] (info): the tile uses register-indirect addressing and
      its per-word checks are skipped. *)

val analyze : Puma_isa.Program.t -> Diag.t list
