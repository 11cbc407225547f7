(* Hand-written PUMA assembly, end to end.

   The compiler is optional: this example writes a one-core program in
   textual assembly (docs/ISA.md), assembles it with Puma_isa.Asm, binds
   a crossbar image and I/O addresses by hand, validates it with the
   static checker and analyzer and runs it on the simulated node.

   The program computes y = relu(W x) - 0.25 for a 32-wide input:

     load  xin0[0], @0, w=32      ; shared memory -> DAC registers
     mvm   mask=0x01 ...          ; the analog matrix-vector multiply
     copy  r0, xout0[0], w=32     ; ADC registers -> general registers
     alu.relu  r0, r0, w=32
     alui.sub  r0, r0, #1024, w=32  ; 1024 raw = 0.25 in Q3.12
     store @32, r0, count=0, w=32

     dune exec examples/handwritten_asm.exe *)

module Config = Puma_hwmodel.Config
module Tensor = Puma_util.Tensor
module Fixed = Puma_util.Fixed

let config = { Config.sweetspot with mvmu_dim = 32 }

let source =
  "  ; y = relu(W x) - 0.25\n\
   load xin0[0], @0, w=32\n\
   mvm mask=0x01 filter=0 stride=0\n\
   copy r0, xout0[0], w=32\n\
   alu.relu r0, r0, w=32\n\
   alui.sub r0, r0, #1024, w=32\n\
   store @32, r0, count=0, w=32\n\
   halt\n"

let () =
  let layout = Puma_isa.Operand.layout config in
  let code =
    match Puma_isa.Asm.parse_program layout source with
    | Ok code -> code
    | Error e -> failwith e
  in
  print_endline "assembled:";
  print_string (Puma_isa.Asm.program_to_string layout code);
  (* A circulant weight matrix: output i averages inputs i and i+1. *)
  let rng = Puma_util.Rng.create 5 in
  let image =
    Fixed.image_of_mat
      (Tensor.mat_init 32 32 (fun i j ->
           if j = i || j = (i + 1) mod 32 then 0.5 else 0.0))
  in
  let program =
    {
      Puma_isa.Program.config;
      tiles =
        [|
          {
            Puma_isa.Program.tile_index = 0;
            core_code = [| code |];
            tile_code = [||];
            mvmu_images = [ { core_index = 0; mvmu_index = 0; image } ];
          };
        |];
      inputs =
        [ { Puma_isa.Program.name = "x"; tile = 0; mem_addr = 0; length = 32; offset = 0 } ];
      outputs =
        [ { Puma_isa.Program.name = "y"; tile = 0; mem_addr = 32; length = 32; offset = 0 } ];
      constants = [];
    }
  in
  Puma_isa.Check.check_exn program;
  (* The full static analyzer (dataflow, consumer counts, channels): a
     hand-written program earns the same scrutiny compiled ones get. *)
  let report = Puma_analysis.Analyze.program program in
  Format.printf "analyzer: %a" Puma_analysis.Analyze.pp report;
  if Puma_analysis.Analyze.has_errors report then
    failwith "static analysis found errors";
  let session = Puma.Session.of_program program in
  let x = Tensor.vec_rand rng 32 1.0 in
  let y = List.assoc "y" (Puma.Session.infer session [ ("x", x) ]) in
  (* Validate against the arithmetic we wrote. *)
  let expected =
    Array.init 32 (fun i ->
        Float.max 0.0 (0.5 *. (x.(i) +. x.((i + 1) mod 32))) -. 0.25)
  in
  Printf.printf "max |error| vs hand-computed result: %.5f\n"
    (Tensor.vec_max_abs_diff expected y);
  Format.printf "%a@." Puma_sim.Metrics.pp (Puma.Session.metrics session)
