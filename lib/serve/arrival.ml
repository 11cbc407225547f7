module Rng = Puma_util.Rng

type process =
  | Poisson of { rate_rps : float }
  | Bursty of {
      base_rps : float;
      burst_rps : float;
      period_s : float;
      duty : float;
    }
  | Diurnal of { mean_rps : float; amplitude : float; period_s : float }

let validate p =
  let check ok msg = if ok then Ok p else Error msg in
  match p with
  | Poisson { rate_rps } -> check (rate_rps > 0.0) "poisson rate must be positive"
  | Bursty { base_rps; burst_rps; period_s; duty } ->
      if base_rps < 0.0 then Error "bursty base rate must be nonnegative"
      else if burst_rps <= 0.0 then Error "bursty burst rate must be positive"
      else if burst_rps < base_rps then
        Error "bursty burst rate must be >= the base rate"
      else if period_s <= 0.0 then Error "bursty period must be positive"
      else check (duty > 0.0 && duty < 1.0) "bursty duty must be in (0, 1)"
  | Diurnal { mean_rps; amplitude; period_s } ->
      if mean_rps <= 0.0 then Error "diurnal mean rate must be positive"
      else if amplitude < 0.0 || amplitude > 1.0 then
        Error "diurnal amplitude must be in [0, 1]"
      else check (period_s > 0.0) "diurnal period must be positive"

let parse spec =
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let float_field name s =
    match float_of_string_opt (String.trim s) with
    | Some f -> Ok f
    | None -> fail "arrival spec %S: %s is not a number (%S)" spec name s
  in
  let ( let* ) = Result.bind in
  match String.index_opt spec ':' with
  | None ->
      fail "arrival spec %S: expected KIND:PARAMS (poisson:RATE, \
            bursty:BASE,BURST,PERIOD[,DUTY], diurnal:MEAN,AMPLITUDE,PERIOD)"
        spec
  | Some i -> (
      let kind = String.lowercase_ascii (String.sub spec 0 i) in
      let rest = String.sub spec (i + 1) (String.length spec - i - 1) in
      let fields = String.split_on_char ',' rest in
      let* p =
        match (kind, fields) with
        | "poisson", [ r ] ->
            let* rate_rps = float_field "rate" r in
            Ok (Poisson { rate_rps })
        | "poisson", _ -> fail "arrival spec %S: poisson takes one rate" spec
        | "bursty", ([ b; u; per ] | [ b; u; per; _ ]) ->
            let* base_rps = float_field "base rate" b in
            let* burst_rps = float_field "burst rate" u in
            let* period_s = float_field "period" per in
            let* duty =
              match fields with
              | [ _; _; _; d ] -> float_field "duty" d
              | _ -> Ok 0.5
            in
            Ok (Bursty { base_rps; burst_rps; period_s; duty })
        | "bursty", _ ->
            fail "arrival spec %S: bursty takes BASE,BURST,PERIOD[,DUTY]" spec
        | "diurnal", [ m; a; per ] ->
            let* mean_rps = float_field "mean rate" m in
            let* amplitude = float_field "amplitude" a in
            let* period_s = float_field "period" per in
            Ok (Diurnal { mean_rps; amplitude; period_s })
        | "diurnal", _ ->
            fail "arrival spec %S: diurnal takes MEAN,AMPLITUDE,PERIOD" spec
        | _ ->
            fail "arrival spec %S: unknown process %S (try poisson, bursty, \
                  diurnal)"
              spec kind
      in
      Result.map_error
        (fun e -> Printf.sprintf "arrival spec %S: %s" spec e)
        (validate p))

let to_spec = function
  | Poisson { rate_rps } -> Printf.sprintf "poisson:%g" rate_rps
  | Bursty { base_rps; burst_rps; period_s; duty } ->
      Printf.sprintf "bursty:%g,%g,%g,%g" base_rps burst_rps period_s duty
  | Diurnal { mean_rps; amplitude; period_s } ->
      Printf.sprintf "diurnal:%g,%g,%g" mean_rps amplitude period_s

let rate_at p t =
  match p with
  | Poisson { rate_rps } -> rate_rps
  | Bursty { base_rps; burst_rps; period_s; duty } ->
      let phase = Float.rem t period_s in
      let phase = if phase < 0.0 then phase +. period_s else phase in
      if phase < duty *. period_s then burst_rps else base_rps
  | Diurnal { mean_rps; amplitude; period_s } ->
      mean_rps
      *. (1.0 +. (amplitude *. sin (2.0 *. Float.pi *. t /. period_s)))

let peak_rate = function
  | Poisson { rate_rps } -> rate_rps
  | Bursty { burst_rps; _ } -> burst_rps
  | Diurnal { mean_rps; amplitude; _ } -> mean_rps *. (1.0 +. amplitude)

(* Thinning (Lewis–Shedler): candidates arrive as a homogeneous Poisson
   process at the envelope rate; candidate k survives with probability
   lambda(t_k) / peak. Each candidate's gap and coin come from its own
   indexed child streams, so the realized sequence is a pure function of
   (process, seed, k) — never of evaluation order. *)
let times p ~seed ~duration_s =
  let envelope = peak_rate p in
  if envelope <= 0.0 || duration_s <= 0.0 then [||]
  else begin
    let root = Rng.create seed in
    (* Unboxed and grown by doubling: a list of boxed floats outlives
       minor collections and is promoted whole. *)
    let accepted = ref (Array.make 256 0.0) and count = ref 0 in
    let t = ref 0.0 in
    let k = ref 0 in
    let continue = ref true in
    while !continue do
      let gap_rng = Rng.stream root (2 * !k) in
      let coin_rng = Rng.stream root ((2 * !k) + 1) in
      (* 1 - U keeps the argument of log in (0, 1]. *)
      let u = 1.0 -. Rng.float gap_rng 1.0 in
      t := !t +. (-.log u /. envelope);
      if !t >= duration_s then continue := false
      else begin
        if Rng.float coin_rng 1.0 *. envelope <= rate_at p !t then begin
          if !count = Array.length !accepted then
            accepted := Array.append !accepted !accepted;
          !accepted.(!count) <- !t;
          incr count
        end;
        incr k
      end
    done;
    Array.sub !accepted 0 !count
  end
