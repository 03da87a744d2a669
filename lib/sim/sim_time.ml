type t = int

type span = int

let zero = 0

let microseconds us = us

let milliseconds ms = ms * 1_000

let seconds s = s * 1_000_000

let minutes m = m * 60_000_000

let to_seconds_float us = float_of_int us /. 1e6

let add t span = t + span

let diff a b = a - b

let compare = Int.compare

let pp formatter t =
  if t < 1_000 then Format.fprintf formatter "%dus" t
  else if t < 1_000_000 then
    Format.fprintf formatter "%.3fms" (float_of_int t /. 1e3)
  else Format.fprintf formatter "%.3fs" (float_of_int t /. 1e6)

let to_string t = Format.asprintf "%a" pp t
