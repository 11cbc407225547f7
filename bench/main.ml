(* Benchmark harness.

   `dune exec bench/main.exe` regenerates every table and figure of the
   paper's evaluation (printed as aligned text tables).
   `dune exec bench/main.exe -- --list` shows the available experiments;
   `-- <name>` runs a single one. Host-time measurement of the layers
   behind them lives in bench/perf. *)

let run_tables which =
  List.iter
    (fun (name, f) ->
      if which = [] || List.mem name which then begin
        Printf.printf "################ %s ################\n%!" name;
        List.iter Puma_util.Table.print (f ())
      end)
    Experiments.all_experiments

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  if List.mem "--list" args then
    List.iter (fun (n, _) -> print_endline n) Experiments.all_experiments
  else
    run_tables
      (List.filter (fun a -> not (String.length a > 1 && a.[0] = '-')) args)
