(* End-to-end exit-status regression for puma_cli: every subcommand that
   resolves a model name must exit nonzero (status 1, via the shared
   [exit_err]) when the name is unknown, and cheap known-good invocations
   must exit 0. Runs the real executable via the shared {!Cli_runner}
   helper; the dune rule depends on it. *)

let exe = Cli_runner.exe
let run = Cli_runner.run

let test_exe_present () =
  Alcotest.(check bool) ("exists: " ^ exe) true (Sys.file_exists exe)

(* One spelling of a bad model per model-resolving subcommand; the name
   must not collide with a file either. *)
let bad = "no-such-model-xyz"

let unknown_model_cases =
  [
    [ "compile"; bad ];
    [ "run"; bad ];
    [ "graph"; bad ];
    [ "analyze"; bad ];
    [ "batch"; "--model"; bad ];
    [ "serve"; "--models"; bad ];
    [ "serve"; "--models"; "mlp," ^ bad ];
    [ "faults"; "--model"; bad ];
    [ "profile"; bad ];
    [ "estimate"; bad ];
  ]

let test_unknown_model_exits_1 () =
  List.iter
    (fun args ->
      Alcotest.(check int)
        ("exit 1: " ^ String.concat " " args)
        1 (run args))
    unknown_model_cases

let test_known_good_exit_0 () =
  let program = Filename.temp_file "puma_mlpl4_x2" ".puma" in
  List.iter
    (fun args ->
      Alcotest.(check int)
        ("exit 0: " ^ String.concat " " args)
        0 (run args))
    [
      [ "models" ];
      [ "graph"; "mlp" ];
      [
        "faults"; "--model"; "mlp"; "--dim"; "32"; "--rate"; "0.001";
        "--seeds"; "1"; "--samples"; "2"; "--domains"; "1"; "--json";
      ];
      [ "analyze"; "mlp"; "--dim"; "32" ];
      [ "compile"; "mlp"; "--dim"; "32" ];
      [ "run"; "mlp"; "--dim"; "32" ];
      [ "run"; "lenet5"; "--no-analysis" ];
      [
        "batch"; "--model"; "mlp"; "--dim"; "32"; "--batch-size"; "2";
        "--domains"; "1";
      ];
      [ "profile"; "mlp"; "--dim"; "32"; "--runs"; "1" ];
      [ "compile"; "MLPL4"; "--nodes"; "2"; "-o"; program ];
    ];
  let size = In_channel.with_open_bin program In_channel.length in
  Sys.remove program;
  Alcotest.(check bool) "multi-chip program saved" true (size > 0L)

let test_bad_flag_values_exit_nonzero () =
  List.iter
    (fun args ->
      Alcotest.(check bool)
        ("nonzero exit: " ^ String.concat " " args)
        true
        (run args <> 0))
    [
      [ "batch"; "--model"; "mlp"; "--batch-size"; "0" ];
      [ "faults"; "--model"; "mlp"; "--seeds"; "0" ];
      [ "faults"; "--model"; "mlp"; "--samples"; "0" ];
      [ "faults"; "--model"; "mlp"; "--stuck-on"; "2.0" ];
      [ "serve"; "--arrival"; "poisson:-5" ];
      [ "serve"; "--arrival"; "uniform:10" ];
      [ "serve"; "--arrival"; "bursty:100" ];
      [ "serve"; "--models"; "mlp=notanint" ];
      [ "serve"; "--nodes"; "0" ];
      [ "serve"; "--fleet"; "0" ];
      [ "compile"; "mlp"; "--nodes"; "0" ];
      [ "serve"; "--duration"; "0" ];
      (* The reference loop is a library oracle, not a CLI mode. *)
      [ "run"; "mlp"; "--no-fast" ];
      [ "batch"; "--model"; "mlp"; "--fast" ];
      (* A compile's gates are not optional: analyze runs them all. *)
      [ "analyze"; "mlp"; "--ranges" ];
      [ "compile"; "mlp"; "--no-equiv" ];
    ]

(* Inputs every command must reject with an "error:" line and exit 1,
   never with an uncaught exception (exit 125). The saved program is
   lenet5 compiled with the analysis gate off at dim 64, so it overflows
   a core's instruction memory (E-IMEM) and fails the structural check. *)
let test_invalid_input_exits_1 () =
  let module Compile = Puma_compiler.Compile in
  let saved = Filename.temp_file "puma_lenet5_imem" ".puma" in
  Fun.protect
    ~finally:(fun () -> Sys.remove saved)
    (fun () ->
      let r =
        Compile.compile
          ~options:{ Compile.default_options with analysis_gate = false }
          { Puma_hwmodel.Config.sweetspot with mvmu_dim = 64 }
          (Puma_nn.Network.build_graph Puma_nn.Models.lenet5)
      in
      Puma_isa.Program_io.save saved r.Compile.program;
      List.iter
        (fun args ->
          let what = String.concat " " args in
          let status, err = Cli_runner.run_capture args in
          let says sub = Puma_util.Strings.contains ~sub err in
          Alcotest.(check int) ("exit 1: " ^ what) 1 status;
          Alcotest.(check bool) ("error line: " ^ what) true (says "error:");
          Alcotest.(check bool)
            ("no uncaught exception: " ^ what)
            false
            (says "uncaught exception"))
        [
          [ "run"; "lenet5" ];
          [ "batch"; "--model"; "lenet5" ];
          [ "serve"; "--models"; "lenet5" ];
          [ "exec"; saved ];
          [ "profile"; saved ];
          [ "run"; "mlp"; "--dim"; "0" ];
          [ "compile"; "mlp"; "--dim"; "48" ];
          [ "run"; "lstm"; "--seq-len"; "0" ];
          [ "accuracy"; "--bits"; "0" ];
          [ "accuracy"; "--samples"; "0" ];
          [ "estimate"; "VGG16"; "--batch"; "0" ];
          [ "faults"; "--model"; "mlp"; "--rate"; "1.5" ];
          [ "faults"; "--model"; "mlp"; "--rate=-0.5" ];
          [ "analyze"; "mlp"; "--input-range"; "5,-5" ];
        ])

(* One-core program files that the simulator cannot finish: a load of a
   word nothing writes deadlocks, and a register-indirect load past the
   end of shared memory traps. [exec] and [profile] report either as an
   error line and exit 1; [analyze] names the trap's E-SMEM. *)
let test_simulator_failure_exits_1 () =
  let module Program = Puma_isa.Program in
  let config = { Puma_hwmodel.Config.sweetspot with mvmu_dim = 32 } in
  let capacity = config.Puma_hwmodel.Config.smem_bytes / 2 in
  let program source =
    let layout = Puma_isa.Operand.layout config in
    let code =
      match Puma_isa.Asm.parse_program layout source with
      | Ok code -> code
      | Error e -> Alcotest.fail e
    in
    {
      Program.config;
      tiles =
        [|
          {
            Program.tile_index = 0;
            core_code = [| code |];
            tile_code = [| Puma_isa.Instr.Halt |];
            mvmu_images = [];
          };
        |];
      inputs = [];
      outputs = [];
      constants = [];
    }
  in
  let deadlock = Filename.temp_file "puma_deadlock" ".puma" in
  let trap = Filename.temp_file "puma_trap" ".puma" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove deadlock;
      Sys.remove trap)
    (fun () ->
      Puma_isa.Program_io.save deadlock (program "load r0, @10, w=1\nhalt\n");
      Puma_isa.Program_io.save trap
        (program
           (Printf.sprintf "set s0, #%d\nload r0, @[s0], w=16\nhalt\n"
              (capacity - 8)));
      List.iter
        (fun args ->
          let what = String.concat " " args in
          let status, err = Cli_runner.run_capture args in
          Alcotest.(check int) ("exit 1: " ^ what) 1 status;
          Alcotest.(check bool) ("error line: " ^ what) true
            (String.starts_with ~prefix:"error:" err))
        [
          [ "exec"; deadlock ];
          [ "profile"; deadlock ];
          [ "exec"; trap ];
          [ "profile"; trap ];
        ];
      let status, out = Cli_runner.run_capture_out [ "analyze"; trap ] in
      Alcotest.(check int) "analyze exits 1" 1 status;
      Alcotest.(check bool) "E-SMEM where the load traps" true
        (Puma_util.Strings.contains ~sub:"error[E-SMEM] tile 0 core 0 pc 1" out))

(* A tiny serve run at dim 32 with a handful of arrivals, exercising the
   full record -> replay -> budget-gate pipeline through the real
   executable. *)
let serve_args =
  [
    "serve"; "--models"; "mlp,rnn=1"; "--arrival"; "poisson:1500";
    "--duration"; "0.002"; "--dim"; "32"; "--fleet"; "2"; "--domains"; "1";
    "--seed"; "3";
  ]

let test_serve_roundtrip () =
  let dir = Filename.temp_file "puma_serve_cli" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let trace = Filename.concat dir "trace.json" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let status, out =
        Cli_runner.run_capture_out (serve_args @ [ "--trace"; trace; "--json" ])
      in
      Alcotest.(check int) "record run exits 0" 0 status;
      Alcotest.(check bool) "trace written" true (Sys.file_exists trace);
      Alcotest.(check int) "replay reproduces -> 0" 0
        (run [ "serve"; "--replay"; trace ]);
      (* The --json document is the trace: it replays too. *)
      Alcotest.(check string) "--json prints the trace" (Cli_runner.slurp trace)
        out;
      let json = Filename.concat dir "report.json" in
      Out_channel.with_open_bin json (fun oc -> output_string oc out);
      Alcotest.(check int) "--json output replays -> 0" 0
        (run [ "serve"; "--replay"; json ]);
      (* A generous budget passes; an absurd one fails the gate. *)
      let write_budget path p99 =
        let oc = open_out path in
        Printf.fprintf oc "{\"models\": {\"mlp\": {\"max_p99_ms\": %s}}}" p99;
        close_out oc
      in
      let pass_budget = Filename.concat dir "budget_pass.json" in
      let fail_budget = Filename.concat dir "budget_fail.json" in
      write_budget pass_budget "1e9";
      write_budget fail_budget "1e-9";
      Alcotest.(check int) "budget within -> 0" 0
        (run (serve_args @ [ "--budget"; pass_budget ]));
      Alcotest.(check int) "budget violated -> 1" 1
        (run (serve_args @ [ "--budget"; fail_budget ])))

let test_serve_replay_errors () =
  let status, _ = Cli_runner.run_capture [ "serve"; "--replay"; "/nonexistent/trace.json" ] in
  Alcotest.(check bool) "missing trace -> nonzero" true (status <> 0);
  let corrupt = Filename.temp_file "puma_corrupt_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove corrupt)
    (fun () ->
      let oc = open_out corrupt in
      output_string oc "{\n  \"version\": 1,\n  }\n";
      close_out oc;
      let status, stderr =
        Cli_runner.run_capture [ "serve"; "--replay"; corrupt ]
      in
      Alcotest.(check bool) "corrupt trace -> nonzero" true (status <> 0);
      Alcotest.(check bool)
        (Printf.sprintf "parse error names the line (stderr: %S)" stderr)
        true
        (Puma_util.Strings.contains ~sub:"line 3" stderr))

(* A trace whose crossbar dimension is invalid fails the replay naming
   the trace field it came from, not a --dim flag nobody passed. *)
let test_serve_replay_bad_dim () =
  let trace = Filename.temp_file "puma_serve_dim" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove trace)
    (fun () ->
      Alcotest.(check int) "record exits 0" 0
        (run (serve_args @ [ "--trace"; trace ]));
      let module Json = Puma_util.Json in
      let document =
        match Json.parse (Cli_runner.slurp trace) with
        | Ok (Json.Obj fields) ->
            Json.Obj
              (List.map
                 (fun (k, v) -> if k = "mvmu_dim" then (k, Json.Int 48) else (k, v))
                 fields)
        | Ok _ | Error _ -> Alcotest.fail "trace is not a JSON object"
      in
      Out_channel.with_open_bin trace (fun oc ->
          output_string oc (Json.to_string document));
      let status, stderr =
        Cli_runner.run_capture [ "serve"; "--replay"; trace ]
      in
      Alcotest.(check int) "bad trace dim -> 1" 1 status;
      Alcotest.(check bool)
        (Printf.sprintf "error names the trace field (stderr: %S)" stderr)
        true
        (Puma_util.Strings.contains ~sub:"trace mvmu_dim 48" stderr))

(* A fleet of 2-chip machines records its machine in the trace, and the
   replay rebuilds that machine: on single chips the decisions differ. *)
let test_serve_two_chip_roundtrip () =
  let trace = Filename.temp_file "puma_serve_2chip" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove trace)
    (fun () ->
      Alcotest.(check int) "2-chip record exits 0" 0
        (run
           [
             "serve"; "--models"; "mlp"; "--nodes"; "2"; "--dim"; "64";
             "--duration"; "0.0005"; "--arrival"; "poisson:20000";
             "--domains"; "1"; "--trace"; trace;
           ]);
      Alcotest.(check bool) "trace records the chips" true
        (Puma_util.Strings.contains ~sub:{|"chips":2|}
           (Cli_runner.slurp trace));
      Alcotest.(check int) "2-chip replay reproduces -> 0" 0
        (run [ "serve"; "--replay"; trace ]);
      (* Replaying the replay's own --json document closes the loop. *)
      let status, out =
        Cli_runner.run_capture_out [ "serve"; "--replay"; trace; "--json" ]
      in
      Alcotest.(check int) "2-chip replay --json exits 0" 0 status;
      Out_channel.with_open_bin trace (fun oc -> output_string oc out);
      Alcotest.(check int) "2-chip --json output replays -> 0" 0
        (run [ "serve"; "--replay"; trace ]))

(* ---- translation validation of saved program files ---- *)

(* Build a deliberately miscompiled artifact with the library — swap one
   transcendental LUT, scanning sites until the validator refutes it —
   save it, and check the CLI rejects it against the source model,
   naming the falsified output. The unmutated artifact must pass the
   same invocation. *)
let test_analyze_equiv_program_file () =
  let module Compile = Puma_compiler.Compile in
  let module Equiv = Puma_analysis.Equiv in
  let module Instr = Puma_isa.Instr in
  let module Program = Puma_isa.Program in
  let module Config = Puma_hwmodel.Config in
  let r =
    Compile.compile
      { Config.sweetspot with Config.mvmu_dim = 32 }
      (Puma_nn.Network.build_graph Puma_nn.Models.mini_mlp)
  in
  let base = r.Compile.program in
  let mutated = ref None in
  Array.iteri
    (fun t (tp : Program.tile_program) ->
      Array.iteri
        (fun c code ->
          Array.iteri
            (fun pc i ->
              if !mutated = None then
                match i with
                | Instr.Alu ({ op = Instr.Sigmoid; _ } as a) ->
                    let p =
                      {
                        base with
                        Program.tiles =
                          Array.map
                            (fun (tp : Program.tile_program) ->
                              {
                                tp with
                                Program.core_code =
                                  Array.map Array.copy tp.core_code;
                              })
                            base.Program.tiles;
                      }
                    in
                    p.Program.tiles.(t).Program.core_code.(c).(pc) <-
                      Instr.Alu { a with op = Instr.Tanh };
                    let e =
                      Equiv.check ~reference:r.Compile.equiv_reference p
                    in
                    if e.Equiv.verdict = Equiv.Refuted then mutated := Some p
                | _ -> ())
            code)
        tp.core_code)
    base.Program.tiles;
  let bad =
    match !mutated with
    | Some p -> p
    | None -> Alcotest.fail "no LUT swap refuted mini_mlp"
  in
  let good_file = Filename.temp_file "puma_good" ".puma" in
  let bad_file = Filename.temp_file "puma_bad" ".puma" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove good_file;
      Sys.remove bad_file)
    (fun () ->
      Puma_isa.Program_io.save good_file base;
      Puma_isa.Program_io.save bad_file bad;
      let against = [ "--reference"; "mlp"; "--dim"; "32" ] in
      let status, out =
        Cli_runner.run_capture_out ([ "analyze"; good_file ] @ against)
      in
      Alcotest.(check int) "clean artifact revalidates -> 0" 0 status;
      Alcotest.(check bool) "clean artifact proof line" true
        (Puma_util.Strings.contains ~sub:"I-EQUIV" out);
      let status, out =
        Cli_runner.run_capture_out ([ "analyze"; bad_file ] @ against)
      in
      Alcotest.(check int) "miscompiled artifact -> 1" 1 status;
      Alcotest.(check bool) "refutation reported" true
        (Puma_util.Strings.contains ~sub:"E-EQUIV" out);
      let output_name =
        (List.hd base.Program.outputs).Program.name
      in
      Alcotest.(check bool) "names the falsified output" true
        (Puma_util.Strings.contains ~sub:("output " ^ output_name) out);
      (* A program file alone has no source dataflow to validate
         against: the report says the validation did not run, rather
         than skipping it silently. *)
      let status, out =
        Cli_runner.run_capture_out [ "analyze"; bad_file; "--dim"; "32" ]
      in
      Alcotest.(check int) "no --reference -> 0" 0 status;
      Alcotest.(check bool) "not-run line names --reference" true
        (Puma_util.Strings.contains
           ~sub:"info[I-SKIP] program: translation validation not run"
           out
        && Puma_util.Strings.contains ~sub:"--reference MODEL" out);
      Alcotest.(check bool) "no verdict without a reference" false
        (Puma_util.Strings.contains ~sub:"EQUIV" out))

(* `graph` prints its summary as one line with single spaces. *)
let test_graph_summary () =
  let status, out = Cli_runner.run_capture_out [ "graph"; "mlp" ] in
  Alcotest.(check int) "exit" 0 status;
  Alcotest.(check string) "summary line"
    "MLP-64-150-150-14: 14 nodes, 3 MVM ops (34200 MACs), 3 vector ops, 3 \
     nonlinear (3 transcendental), 34200 weight parameters, widest vector \
     150\n"
    out

let () =
  Alcotest.run "cli"
    [
      ( "exit-status",
        [
          Alcotest.test_case "exe present" `Quick test_exe_present;
          Alcotest.test_case "unknown model -> 1" `Quick
            test_unknown_model_exits_1;
          Alcotest.test_case "known good -> 0" `Quick test_known_good_exit_0;
          Alcotest.test_case "bad flags -> nonzero" `Quick
            test_bad_flag_values_exit_nonzero;
          Alcotest.test_case "invalid input -> 1" `Quick
            test_invalid_input_exits_1;
          Alcotest.test_case "simulator failure -> 1" `Quick
            test_simulator_failure_exits_1;
        ] );
      ( "serve",
        [
          Alcotest.test_case "record/replay/budget roundtrip" `Quick
            test_serve_roundtrip;
          Alcotest.test_case "replay errors name the failure" `Quick
            test_serve_replay_errors;
          Alcotest.test_case "2-chip record/replay roundtrip" `Quick
            test_serve_two_chip_roundtrip;
          Alcotest.test_case "replay names a bad trace dim" `Quick
            test_serve_replay_bad_dim;
        ] );
      ( "equiv",
        [
          Alcotest.test_case "revalidate saved artifacts" `Quick
            test_analyze_equiv_program_file;
        ] );
      ( "graph",
        [ Alcotest.test_case "summary line" `Quick test_graph_summary ] );
    ]
