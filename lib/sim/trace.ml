type entry = { time : Sim_time.t; subsystem : string; message : string }

type t = {
  engine : Engine.t;
  capacity : int;
  mutable ring : entry list; (* newest first, trimmed to capacity *)
  mutable size : int;
  enabled_tags : (string, unit) Hashtbl.t;
}

let create ?(capacity = 4096) engine =
  {
    engine;
    capacity;
    ring = [];
    size = 0;
    enabled_tags = Hashtbl.create 16;
  }

let enable t tag = Hashtbl.replace t.enabled_tags tag ()

let enabled t tag =
  Hashtbl.mem t.enabled_tags tag || Hashtbl.mem t.enabled_tags "*"

let pp_entry formatter entry =
  Format.fprintf formatter "[%a] %-10s %s" Sim_time.pp entry.time
    entry.subsystem entry.message

let record t subsystem message =
  let entry = { time = Engine.now t.engine; subsystem; message } in
  t.ring <- entry :: t.ring;
  t.size <- t.size + 1;
  if t.size > t.capacity then begin
    (* Drop the oldest half in one pass to amortize the trim. *)
    let keep = t.capacity / 2 in
    t.ring <- List.filteri (fun i _ -> i < keep) t.ring;
    t.size <- keep
  end

let emit t subsystem fmt =
  if enabled t subsystem then
    Format.kasprintf (fun message -> record t subsystem message) fmt
  else Format.ikfprintf (fun _ -> ()) Format.str_formatter fmt

let entries t = List.rev t.ring

let find t ~subsystem ~substring =
  let matches entry =
    String.equal entry.subsystem subsystem
    &&
    let len_m = String.length entry.message
    and len_s = String.length substring in
    let rec scan i =
      if i + len_s > len_m then false
      else if String.sub entry.message i len_s = substring then true
      else scan (i + 1)
    in
    scan 0
  in
  List.find_opt matches (entries t)

let count t ~subsystem =
  List.length
    (List.filter (fun e -> String.equal e.subsystem subsystem) (entries t))
