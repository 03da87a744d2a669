type stats = { raw_bytes : int; compressed_bytes : int }

let ratio { raw_bytes; compressed_bytes } =
  if raw_bytes = 0 then 1.0
  else float_of_int compressed_bytes /. float_of_int raw_bytes

let front_code keys =
  let raw = Array.fold_left (fun acc k -> acc + String.length k) 0 keys in
  let compressed = ref 0 in
  Array.iteri
    (fun i key ->
      if i = 0 then compressed := !compressed + String.length key
      else begin
        let shared = Key.common_prefix_length keys.(i - 1) key in
        compressed := !compressed + 1 + (String.length key - shared)
      end)
    keys;
  { raw_bytes = raw; compressed_bytes = !compressed }

let btree_stats tree =
  (* Walk records in order and recompute per-leaf boundaries from scratch
     would need leaf access; approximating with the full ordered key stream
     is conservative (cross-leaf prefixes would not compress on disc), so
     instead accumulate per run of [to_alist] restarted at nothing — the
     ordered stream equals the concatenated leaves, and front-coding resets
     only at leaf boundaries, whose count we know. *)
  let keys = Array.of_list (List.map fst (Btree.to_alist tree)) in
  let stream = front_code keys in
  if Array.length keys = 0 then stream
  else begin
    (* Charge a full (uncompressed) first key per extra leaf block. *)
    let leaves = Btree.leaf_blocks tree in
    let average_key =
      stream.raw_bytes / max 1 (Array.length keys)
    in
    let penalty = (leaves - 1) * average_key in
    { stream with compressed_bytes = min stream.raw_bytes (stream.compressed_bytes + penalty) }
  end
