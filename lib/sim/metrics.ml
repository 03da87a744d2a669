type counter = { mutable count : int }

(* A sample holds its observations in one of two forms. While every
   observation is an integer in [0, int_limit), [counts.(v)] is how many
   times [v] was observed, so storage is O(largest value) rather than
   O(observations). The first other observation spills the counts into
   [values] in ascending order; from then on [values] holds one float per
   observation. *)
let int_limit = 4096

type sample = {
  mutable counts : int array; (* integer mode; [||] once spilled *)
  mutable spilled : bool;
  mutable values : float array; (* spilled mode: the first [used] slots *)
  mutable used : int; (* observations, in either mode *)
  mutable sorted : bool; (* spilled mode: [values] ascend *)
}

type histogram = {
  bounds : float array; (* ascending upper bounds; one overflow bucket past the last *)
  buckets : int array; (* length = Array.length bounds + 1 *)
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float; (* meaningful only when h_count > 0 *)
  mutable h_max : float;
}

type metric =
  | Counter of counter
  | Sample of sample
  | Histogram of histogram

type t = { table : metric Tbl.String.t }

let create () = { table = Tbl.String.create 64 }

let counter t name =
  match Tbl.String.find_opt t.table name with
  | Some (Counter c) -> c
  | Some _ -> invalid_arg ("Metrics.counter: " ^ name ^ " is not a counter")
  | None ->
      let c = { count = 0 } in
      Tbl.String.replace t.table name (Counter c);
      c

let incr c = c.count <- c.count + 1

let add c n = c.count <- c.count + n

let counter_value c = c.count

let read_counter t name =
  match Tbl.String.find_opt t.table name with
  | Some (Counter c) -> c.count
  | Some _ -> invalid_arg ("Metrics.read_counter: " ^ name ^ " is not a counter")
  | None -> 0

(* ------------------------------------------------------------------ *)
(* Labeled counters: one counter per label combination, registered under a
   canonical name so that ordinary registry machinery (pp, to_json, names)
   sees them as plain counters. *)

let labeled_name name labels =
  match labels with
  | [] -> name
  | labels ->
      let sorted =
        List.sort (fun (a, _) (b, _) -> String.compare a b) labels
      in
      Printf.sprintf "%s{%s}" name
        (String.concat ","
           (List.map (fun (key, value) -> key ^ "=" ^ value) sorted))

let counter_with t name ~labels = counter t (labeled_name name labels)

(* Interned single-label families: hot paths pay [labeled_name]'s sort +
   sprintf + full-name hashing once per distinct label value, then hold the
   resolved counter. The counters are the very same records [counter_with]
   returns, so families and string-keyed access always agree. *)

type counter_family = {
  f_metrics : t;
  f_name : string;
  f_label : string;
  f_cache : counter Tbl.String.t;
}

let counter_family t ~name ~label =
  {
    f_metrics = t;
    f_name = name;
    f_label = label;
    f_cache = Tbl.String.create 8;
  }

let family_counter f value =
  match Tbl.String.find_opt f.f_cache value with
  | Some c -> c
  | None ->
      let c =
        counter_with f.f_metrics f.f_name ~labels:[ (f.f_label, value) ]
      in
      Tbl.String.replace f.f_cache value c;
      c

let sum_counters t name =
  let prefix = name ^ "{" in
  let is_prefix s =
    String.length s >= String.length prefix
    && String.sub s 0 (String.length prefix) = prefix
  in
  Tbl.String.fold
    (fun key metric acc ->
      match metric with
      | Counter c when key = name || is_prefix key -> acc + c.count
      | _ -> acc)
    t.table 0

let sample t name =
  match Tbl.String.find_opt t.table name with
  | Some (Sample s) -> s
  | Some _ -> invalid_arg ("Metrics.sample: " ^ name ^ " is not a sample")
  | None ->
      let s =
        { counts = [||]; spilled = false; values = [||]; used = 0; sorted = true }
      in
      Tbl.String.replace t.table name (Sample s);
      s

let grow_counts s size =
  let capacity = Array.length s.counts in
  if size > capacity then begin
    let counts = Array.make (min int_limit (max size (max 16 (2 * capacity)))) 0 in
    Array.blit s.counts 0 counts 0 capacity;
    s.counts <- counts
  end

(* The counts become [values], already ascending. *)
let spill s =
  let values = Array.make (max 64 (2 * s.used)) 0.0 in
  let next = ref 0 in
  Array.iteri
    (fun v n ->
      Array.fill values !next n (float_of_int v);
      next := !next + n)
    s.counts;
  s.values <- values;
  s.counts <- [||];
  s.spilled <- true;
  s.sorted <- true

let is_counted v =
  v >= 0.0 && v < float_of_int int_limit && Float.is_integer v
  && not (Float.sign_bit v)

let observe s v =
  if (not s.spilled) && is_counted v then begin
    let i = int_of_float v in
    grow_counts s (i + 1);
    s.counts.(i) <- s.counts.(i) + 1
  end
  else begin
    if not s.spilled then spill s;
    let capacity = Array.length s.values in
    if s.used >= capacity then begin
      let values = Array.make (max 64 (2 * capacity)) 0.0 in
      Array.blit s.values 0 values 0 s.used;
      s.values <- values
    end;
    s.values.(s.used) <- v;
    s.sorted <- false
  end;
  s.used <- s.used + 1

let observe_span t name span =
  observe (sample t name) (float_of_int span /. 1e3)

let sample_count s = s.used

let mean s =
  if s.used = 0 then Float.nan
  else if s.spilled then begin
    let total = ref 0.0 in
    for i = 0 to s.used - 1 do
      total := !total +. s.values.(i)
    done;
    !total /. float_of_int s.used
  end
  else begin
    let total = ref 0 in
    Array.iteri (fun v n -> total := !total + (v * n)) s.counts;
    float_of_int !total /. float_of_int s.used
  end

let ensure_sorted s =
  if not s.sorted then begin
    let view = Array.sub s.values 0 s.used in
    Array.sort Float.compare view;
    Array.blit view 0 s.values 0 s.used;
    s.sorted <- true
  end

(* The [rank]-th smallest observation, from 0. *)
let order_statistic s rank =
  if s.spilled then begin
    ensure_sorted s;
    s.values.(rank)
  end
  else begin
    let rec walk v below =
      let below = below + s.counts.(v) in
      if below > rank then v else walk (v + 1) below
    in
    float_of_int (walk 0 0)
  end

let percentile s p =
  if s.used = 0 then Float.nan
  else begin
    let rank = p *. float_of_int (s.used - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = min (s.used - 1) (lo + 1) in
    let frac = rank -. float_of_int lo in
    (order_statistic s lo *. (1.0 -. frac)) +. (order_statistic s hi *. frac)
  end

let sample_max s = if s.used = 0 then Float.nan else order_statistic s (s.used - 1)

(* Every observation, ascending. *)
let iter_ascending f s =
  if s.spilled then begin
    ensure_sorted s;
    for i = 0 to s.used - 1 do
      f s.values.(i)
    done
  end
  else
    Array.iteri
      (fun v n ->
        for _ = 1 to n do
          f (float_of_int v)
        done)
      s.counts

let read_sample t name = sample t name

(* ------------------------------------------------------------------ *)
(* Histograms: fixed buckets give percentile estimates without storing every
   observation — the per-transaction instrumentation must stay O(1) per
   event at production rates. *)

(* Roughly geometric in milliseconds, resolving everything from a bus
   transfer to a multi-second stall on the simulated 1981 hardware. *)
let default_latency_bounds_ms =
  [| 0.25; 0.5; 1.0; 2.0; 5.0; 10.0; 20.0; 50.0; 100.0; 200.0; 500.0;
     1000.0; 2000.0; 5000.0; 10000.0; 30000.0 |]

let make_histogram bounds =
  if Array.length bounds = 0 then
    invalid_arg "Metrics.histogram: empty bounds";
  Array.iteri
    (fun i bound ->
      if i > 0 && bound <= bounds.(i - 1) then
        invalid_arg "Metrics.histogram: bounds must ascend strictly")
    bounds;
  {
    bounds = Array.copy bounds;
    buckets = Array.make (Array.length bounds + 1) 0;
    h_count = 0;
    h_sum = 0.0;
    h_min = Float.infinity;
    h_max = Float.neg_infinity;
  }

let histogram ?(bounds = default_latency_bounds_ms) t name =
  match Tbl.String.find_opt t.table name with
  | Some (Histogram h) -> h
  | Some _ -> invalid_arg ("Metrics.histogram: " ^ name ^ " is not a histogram")
  | None ->
      let h = make_histogram bounds in
      Tbl.String.replace t.table name (Histogram h);
      h

let read_histogram t name = histogram t name

let bucket_index h v =
  let n = Array.length h.bounds in
  let rec scan i = if i >= n then n else if v <= h.bounds.(i) then i else scan (i + 1) in
  scan 0

let observe_histogram h v =
  let i = bucket_index h v in
  h.buckets.(i) <- h.buckets.(i) + 1;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v

let observe_latency t name span =
  observe_histogram (histogram t name) (float_of_int span /. 1e3)

let histogram_count h = h.h_count

let histogram_sum h = h.h_sum

let histogram_mean h =
  if h.h_count = 0 then Float.nan else h.h_sum /. float_of_int h.h_count

let histogram_max h = if h.h_count = 0 then Float.nan else h.h_max

let histogram_min h = if h.h_count = 0 then Float.nan else h.h_min

let bucket_bounds h i =
  let lo = if i = 0 then 0.0 else h.bounds.(i - 1) in
  let hi =
    if i < Array.length h.bounds then h.bounds.(i)
    else if h.h_count > 0 then Float.max h.h_max h.bounds.(Array.length h.bounds - 1)
    else h.bounds.(Array.length h.bounds - 1)
  in
  (lo, hi)

(* Prometheus-style estimate: find the bucket where the cumulative count
   reaches q*count and interpolate linearly inside it, then clamp to the
   observed [min, max] (the exact extremes are tracked separately, so q=0
   and q=1 are exact). *)
let histogram_quantile h q =
  if h.h_count = 0 then Float.nan
  else begin
    let target = q *. float_of_int h.h_count in
    let rec locate i cumulative =
      let cumulative = cumulative + h.buckets.(i) in
      if float_of_int cumulative >= target || i = Array.length h.buckets - 1
      then (i, cumulative)
      else locate (i + 1) cumulative
    in
    let i, cumulative = locate 0 0 in
    let lo, hi = bucket_bounds h i in
    let in_bucket = h.buckets.(i) in
    let estimate =
      if in_bucket = 0 then lo
      else begin
        let below = float_of_int (cumulative - in_bucket) in
        let frac = (target -. below) /. float_of_int in_bucket in
        lo +. (Float.max 0.0 (Float.min 1.0 frac) *. (hi -. lo))
      end
    in
    Float.max h.h_min (Float.min h.h_max estimate)
  end

let histogram_buckets h =
  Array.to_list (Array.mapi (fun i count -> (bucket_bounds h i, count)) h.buckets)

(* ------------------------------------------------------------------ *)
(* Merge: fold one registry into another, so per-task registries built on
   worker domains can be combined into the single registry a report or a
   JSON export expects. Every metric merges by accumulation, and a sample
   exports its observations in ascending order, so no export depends on the
   merge order. Only a spilled sample's [mean] can move in its last bits,
   because it sums floats in the order they arrived. *)

let merge_histogram ~(into : histogram) (src : histogram) =
  if into.bounds <> src.bounds then
    invalid_arg "Metrics.merge: histogram bounds differ";
  Array.iteri (fun i n -> into.buckets.(i) <- into.buckets.(i) + n) src.buckets;
  into.h_count <- into.h_count + src.h_count;
  into.h_sum <- into.h_sum +. src.h_sum;
  if src.h_count > 0 then begin
    if src.h_min < into.h_min then into.h_min <- src.h_min;
    if src.h_max > into.h_max then into.h_max <- src.h_max
  end

let merge_sample ~into src =
  if not (into.spilled || src.spilled) then begin
    grow_counts into (Array.length src.counts);
    Array.iteri (fun v n -> into.counts.(v) <- into.counts.(v) + n) src.counts;
    into.used <- into.used + src.used
  end
  else if src.spilled then
    for i = 0 to src.used - 1 do
      observe into src.values.(i)
    done
  else iter_ascending (observe into) src

let merge ~into src =
  let src_names =
    Tbl.String.fold (fun name _ acc -> name :: acc) src.table []
    |> List.sort String.compare
  in
  List.iter
    (fun name ->
      let metric = Tbl.String.find src.table name in
      match (Tbl.String.find_opt into.table name, metric) with
      | None, Counter c -> add (counter into name) c.count
      | None, Sample s -> merge_sample ~into:(sample into name) s
      | None, Histogram h ->
          merge_histogram ~into:(histogram ~bounds:h.bounds into name) h
      | Some (Counter dst), Counter c -> add dst c.count
      | Some (Sample dst), Sample s -> merge_sample ~into:dst s
      | Some (Histogram dst), Histogram h -> merge_histogram ~into:dst h
      | Some _, _ ->
          invalid_arg ("Metrics.merge: " ^ name ^ " has conflicting types"))
    src_names

(* ------------------------------------------------------------------ *)
(* Reporting *)

let names t =
  Tbl.String.fold (fun name _ acc -> name :: acc) t.table []
  |> List.sort String.compare

let pp formatter t =
  let rows =
    List.map
      (fun name ->
        match Tbl.String.find t.table name with
        | Counter c -> (name, Printf.sprintf "%d" c.count)
        | Sample s ->
            ( name,
              Printf.sprintf "n=%d mean=%.3f p50=%.3f p99=%.3f max=%.3f"
                s.used (mean s) (percentile s 0.5) (percentile s 0.99)
                (sample_max s) )
        | Histogram h ->
            ( name,
              Printf.sprintf
                "n=%d mean=%.3f p50=%.3f p90=%.3f p99=%.3f max=%.3f (hist)"
                h.h_count (histogram_mean h) (histogram_quantile h 0.5)
                (histogram_quantile h 0.9) (histogram_quantile h 0.99)
                (histogram_max h) ))
      (names t)
  in
  let width =
    List.fold_left (fun acc (name, _) -> max acc (String.length name)) 0 rows
  in
  List.iter
    (fun (name, value) ->
      Format.fprintf formatter "%-*s  %s@." width name value)
    rows

(* ------------------------------------------------------------------ *)
(* JSON round-trip *)

let float_list_json values = Json.List (List.map (fun v -> Json.Float v) values)

let metric_to_json = function
  | Counter c -> Json.Obj [ ("type", Json.String "counter"); ("value", Json.Int c.count) ]
  | Sample s ->
      let descending = ref [] in
      iter_ascending (fun v -> descending := Json.Float v :: !descending) s;
      Json.Obj
        [
          ("type", Json.String "sample");
          ("values", Json.List (List.rev !descending));
        ]
  | Histogram h ->
      Json.Obj
        [
          ("type", Json.String "histogram");
          ("bounds", float_list_json (Array.to_list h.bounds));
          ("buckets", Json.List (Array.to_list (Array.map (fun c -> Json.Int c) h.buckets)));
          ("count", Json.Int h.h_count);
          ("sum", Json.Float h.h_sum);
          ("min", Json.Float (if h.h_count = 0 then 0.0 else h.h_min));
          ("max", Json.Float (if h.h_count = 0 then 0.0 else h.h_max));
        ]

let to_json t =
  Json.Obj
    (List.map
       (fun name -> (name, metric_to_json (Tbl.String.find t.table name)))
       (names t))
