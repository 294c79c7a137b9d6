let linear sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Percentile.linear: empty"
  else if n = 1 then sorted.(0)
  else
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let frac = rank -. float_of_int lo in
    if lo >= n - 1 then sorted.(n - 1)
    else (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(lo + 1) *. frac)
