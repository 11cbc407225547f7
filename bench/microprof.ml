(* Hand-rolled micro-profiling harness on the monotonic clock.

   The simulator throughput measurements time multi-millisecond sweeps
   where a best-of-k measurement is stable, and where we need the raw
   seconds to derive rates (simulated cycles per second, inferences per
   second) from the same run. *)

let time f =
  let t0 = Monotonic_clock.now () in
  let r = f () in
  (r, Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) *. 1e-9)

(* Best-of-[repeats] timing: runs [f] [repeats] times and returns the last
   result with the minimum wall-clock seconds (the minimum filters
   scheduler noise and GC pauses better than the mean). *)
let best ?(repeats = 3) f =
  let best_s = ref infinity in
  let result = ref None in
  for _ = 1 to repeats do
    let r, s = time (fun () -> Sys.opaque_identity (f ())) in
    result := Some r;
    if s < !best_s then best_s := s
  done;
  (Option.get !result, !best_s)

let rate ~events seconds = if seconds <= 0.0 then infinity else events /. seconds

let ns_per ~iters seconds = seconds /. Float.of_int iters *. 1e9
