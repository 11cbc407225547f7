(* Benchmark harness.

   `dune exec bench/main.exe` regenerates every table and figure of the
   paper's evaluation (printed as aligned text tables).
   `dune exec bench/main.exe -- --list` shows the available experiments;
   `-- <name> ...` runs only those; an unknown name is an error and runs
   nothing. An experiment that fails prints its diagnostic and the rest
   still run; the exit status is then 1, after a summary naming the
   failures.

   Every run writes BENCH_experiments.json: each table that ran, its
   title, headers and rows, cells as printed, without the host-clock
   columns. The quick sweep's record (PUMA_BENCH_QUICK=1) is pinned in
   ci/experiments_quick.json. Host-time measurement of the layers behind
   the tables lives in bench/perf. *)

module Json = Puma_util.Json
module Table = Puma_util.Table

let record_file = "BENCH_experiments.json"

(* The experiment's tables, or [None] once its failure is reported. *)
let run_one name f =
  Printf.printf "################ %s ################\n%!" name;
  match f () with
  | tables ->
      List.iter Table.print tables;
      Some tables
  | exception e ->
      let msg = match e with Failure m -> m | e -> Printexc.to_string e in
      Printf.eprintf "error: experiment %s failed:\n%s\n%!" name
        (String.trim msg);
      None

let run_tables which =
  let results =
    List.filter_map
      (fun (name, f) ->
        if which = [] || List.mem name which then Some (name, run_one name f)
        else None)
      Experiments.all_experiments
  in
  let experiment (name, tables) =
    Option.map
      (fun tables ->
        Json.Obj
          [
            ("experiment", Json.String name);
            ("tables", Json.List (List.map Table.to_json tables));
          ])
      tables
  in
  let record =
    Json.Obj
      [
        ("quick", Json.Bool (Experiments.bench_quick ()));
        ("experiments", Json.List (List.filter_map experiment results));
      ]
  in
  Out_channel.with_open_bin record_file (fun oc ->
      output_string oc (Json.to_string_lines record));
  let failed =
    List.filter_map
      (fun (name, tables) -> if tables = None then Some name else None)
      results
  in
  if failed <> [] then begin
    Printf.eprintf "%d experiment(s) failed: %s\n" (List.length failed)
      (String.concat ", " failed);
    exit 1
  end

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let names = List.map fst Experiments.all_experiments in
  if List.mem "--list" args then List.iter print_endline names
  else
    match List.filter (fun a -> not (List.mem a names)) args with
    | [] -> run_tables args
    | unknown ->
        Printf.eprintf "error: unknown experiment(s): %s (see --list)\n"
          (String.concat ", " unknown);
        exit 1
