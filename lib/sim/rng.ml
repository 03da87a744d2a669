type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create ~seed = { state = Int64.of_int seed }

(* splitmix64 finalizer: Steele, Lea & Flood, "Fast splittable pseudorandom
   number generators" (OOPSLA 2014). *)
let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t = { state = bits64 t }

let int t bound =
  assert (bound > 0);
  (* Keep 62 bits so the value fits OCaml's 63-bit native int positively. *)
  let raw = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  raw mod bound

let int_in_range t ~lo ~hi =
  assert (lo <= hi);
  lo + int t (hi - lo + 1)

let float t bound =
  let raw = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  bound *. (raw /. 9007199254740992.0 (* 2^53 *))

let bool t = Int64.logand (bits64 t) 1L = 1L

let bernoulli t ~p = float t 1.0 < p

(* Zipf by inverse-CDF over precomputed harmonic weights would need caching;
   the rejection-free "quick" method below recomputes the normalizer, which is
   acceptable because workload generators draw it once per request against
   small n, and contention experiments use n <= a few thousand. *)
let zipf t ~n ~theta =
  assert (n > 0);
  if theta <= 0.0 then int t n
  else begin
    let normalizer = ref 0.0 in
    for i = 1 to n do
      normalizer := !normalizer +. (1.0 /. Float.pow (float_of_int i) theta)
    done;
    let target = float t !normalizer in
    let rec search i acc =
      if i > n then n - 1
      else
        let acc = acc +. (1.0 /. Float.pow (float_of_int i) theta) in
        if acc >= target then i - 1 else search (i + 1) acc
    in
    search 1 0.0
  end

let pick t arr =
  assert (Array.length arr > 0);
  arr.(int t (Array.length arr))
