(* Convolution as a rolled loop (Section 2.3.1).

   The paper motivates control-flow instructions by the code bloat of
   unrolled sliding windows. Our compiler unrolls (each window becomes
   straight-line code); this example shows the alternative the ISA was
   designed for: a 3x3 convolution over an 8x8 image written by hand as
   two nested loops with scalar-register address arithmetic — 28 static
   instructions executing 36 windows, where unrolling needs hundreds.

   Layout: input image at shared memory [0, 64) (row-major), outputs at
   [64, 100). The kernel occupies row 0 of the crossbar; each iteration
   gathers one window into XbarIn with three scalar-addressed loads.

     dune exec examples/rolled_conv.exe *)

module Config = Puma_hwmodel.Config
module Tensor = Puma_util.Tensor
module Fixed = Puma_util.Fixed

let config = { Config.sweetspot with mvmu_dim = 32 }
let img = 8
let k = 3
let out = img - k + 1 (* 6x6 output positions *)

let source =
  Printf.sprintf
    "  ; 3x3 convolution over an 8x8 image, rolled\n\
    \  set s0, #0      ; window row address (row 0 of window)\n\
    \  set s1, #%d     ; row 1 of window\n\
    \  set s2, #%d     ; row 2 of window\n\
    \  set s3, #%d     ; output address\n\
    \  set s6, #1      ; constant 1\n\
    \  set s7, #%d     ; row-step correction (skip k-1 columns)\n\
    \  set s8, #%d     ; columns per output row\n\
    \  set s9, #%d     ; number of output rows\n\
    \  set s5, #0      ; row counter\n\
    \  set s4, #0      ; column counter    <- outer loop head (pc 9)\n\
     load xin0[0], @[s0], w=%d\n\
     load xin0[%d], @[s1], w=%d\n\
     load xin0[%d], @[s2], w=%d\n\
     mvm mask=0x01 filter=%d stride=0\n\
     copy r0, xout0[0], w=1\n\
     store @[s3], r0, count=0, w=1\n\
     aluint.iadd s0, s0, s6\n\
     aluint.iadd s1, s1, s6\n\
     aluint.iadd s2, s2, s6\n\
     aluint.iadd s3, s3, s6\n\
     aluint.iadd s4, s4, s6\n\
     brn.blt s4, s8, 10      ; next column\n\
    \  aluint.iadd s0, s0, s7\n\
    \  aluint.iadd s1, s1, s7\n\
    \  aluint.iadd s2, s2, s7\n\
    \  aluint.iadd s5, s5, s6\n\
     brn.blt s5, s9, 9       ; next row\n\
     halt\n"
    img (2 * img) (img * img) (k - 1) out out k k k (2 * k) k (k - 1)

let () =
  let layout = Puma_isa.Operand.layout config in
  let code =
    match Puma_isa.Asm.parse_program layout source with
    | Ok code -> code
    | Error e -> failwith e
  in
  Printf.printf "%d static instructions for %d windows:\n" (Array.length code)
    (out * out);
  print_string (Puma_isa.Asm.program_to_string layout code);
  (* Kernel in crossbar row 0. *)
  let rng = Puma_util.Rng.create 3 in
  let kernel = Array.init (k * k) (fun _ -> Puma_util.Rng.uniform rng (-0.3) 0.3) in
  let image =
    Fixed.image_of_mat
      (Tensor.mat_init 32 32 (fun i j ->
           if i = 0 && j < k * k then kernel.(j) else 0.0))
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
        [ { Puma_isa.Program.name = "x"; tile = 0; mem_addr = 0; length = img * img; offset = 0 } ];
      outputs =
        [ { Puma_isa.Program.name = "y"; tile = 0; mem_addr = img * img; length = out * out; offset = 0 } ];
      constants = [];
    }
  in
  Puma_isa.Check.check_exn program;
  (* The gates a compiled program passes, on the looped, register-indirect
     form: the symbolic run executes the loops, so its consumer-count and
     channel checks see every window. *)
  let report =
    Puma_analysis.Analyze.program ~ranges:true ~resources:true ~order:true
      program
  in
  Format.printf "analyzer: %a" Puma_analysis.Analyze.pp report;
  if Puma_analysis.Analyze.has_errors report then exit 1;
  let session = Puma.Session.of_program program in
  let x = Tensor.vec_rand rng (img * img) 1.0 in
  let y = List.assoc "y" (Puma.Session.infer session [ ("x", x) ]) in
  (* Reference convolution. *)
  let expected =
    Array.init (out * out) (fun p ->
        let oy = p / out and ox = p mod out in
        let acc = ref 0.0 in
        for ky = 0 to k - 1 do
          for kx = 0 to k - 1 do
            acc := !acc +. (kernel.((ky * k) + kx) *. x.(((oy + ky) * img) + ox + kx))
          done
        done;
        !acc)
  in
  Printf.printf "max |error| vs reference convolution: %.5f\n"
    (Tensor.vec_max_abs_diff expected y);
  if Sys.getenv_opt "DEBUG_CONV" <> None then
    Array.iteri
      (fun p e ->
        if Float.abs (e -. y.(p)) > 0.01 then
          Printf.printf "  [%d] (oy=%d ox=%d) want %.4f got %.4f\n" p (p / out)
            (p mod out) e y.(p))
      expected;
  let u = Puma_isa.Usage.of_instrs (Array.to_list code) in
  Format.printf "static instruction mix of the rolled loop:@.%a@."
    Puma_isa.Usage.pp u
