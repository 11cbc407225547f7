let sorted xs =
  if xs = [] then invalid_arg "Summary: no values";
  Array.of_list (List.sort compare xs)

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 1 then (a.(0), a.(0), a.(0))
  else
    (* statistics.quantiles, method='exclusive': m = n + 1 and cut point
       i sits at position i * m / 4 (1-based), interpolated with exact
       integer arithmetic and clamped to the interior. *)
    let n = 4 and m = ld + 1 in
    let cut i =
      let j = max 1 (min (ld - 1) (i * m / n)) in
      let delta = (i * m) - (j * n) in
      ((a.(j - 1) *. Float.of_int (n - delta)) +. (a.(j) *. Float.of_int delta))
      /. Float.of_int n
    in
    (cut 1, cut 2, cut 3)

let spread xs =
  let q1, _, q3 = quartiles xs in
  let med = median xs in
  if med = 0.0 then if q3 = q1 then 0.0 else infinity
  else (q3 -. q1) /. Float.abs med
