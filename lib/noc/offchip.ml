let link_bandwidth_bytes_per_sec = 6.4e9

let transfer_cycles (c : Puma_hwmodel.Config.t) ~words =
  let bytes = Float.of_int (words * 2) in
  let seconds = bytes /. link_bandwidth_bytes_per_sec in
  let cycles = seconds *. c.frequency_ghz *. 1.0e9 in
  max 1 (Float.to_int (Float.ceil cycles))
