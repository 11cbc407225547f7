(* Benchmark harness.

   `dune exec bench/main.exe` regenerates every table and figure of the
   paper's evaluation (printed as aligned text tables).
   `dune exec bench/main.exe -- --list` shows the available experiments;
   `-- <name>` runs a single one. An experiment that fails prints its
   diagnostic and the rest still run; the exit status is then 1, after a
   summary naming the failures. Host-time measurement of the layers
   behind them lives in bench/perf. *)

let run_tables which =
  let failed =
    List.filter_map
      (fun (name, f) ->
        if which = [] || List.mem name which then begin
          Printf.printf "################ %s ################\n%!" name;
          match f () with
          | tables ->
              List.iter Puma_util.Table.print tables;
              None
          | exception e ->
              let msg =
                match e with Failure m -> m | e -> Printexc.to_string e
              in
              Printf.eprintf "error: experiment %s failed:\n%s\n%!" name
                (String.trim msg);
              Some name
        end
        else None)
      Experiments.all_experiments
  in
  if failed <> [] then begin
    Printf.eprintf "%d experiment(s) failed: %s\n" (List.length failed)
      (String.concat ", " failed);
    exit 1
  end

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  if List.mem "--list" args then
    List.iter (fun (n, _) -> print_endline n) Experiments.all_experiments
  else
    run_tables
      (List.filter (fun a -> not (String.length a > 1 && a.[0] = '-')) args)
