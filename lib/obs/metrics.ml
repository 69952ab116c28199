(* Sharded metrics: each domain records into its own shard (reached
   through Domain.DLS, so no locking on the hot path); shards register
   themselves once, under a mutex, when a domain first records.  A
   snapshot walks the registry and merges deterministically. *)

let enabled_flag =
  Atomic.make
    (match Sys.getenv_opt "MDPRIV_METRICS" with
    | Some ("" | "0" | "false") | None -> false
    | Some _ -> true)

let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

(* Histograms bucket by powers of two: bucket [i] counts samples whose
   value fits in [i] bits (bucket 0 holds value 0, bucket 1 holds 1,
   bucket 2 holds 2-3, ...).  63 buckets cover the full immediate-int
   range, so nanosecond latencies and row counts share one shape. *)
let nbuckets = 63

let bucket_of v =
  if v <= 0 then 0
  else
    let rec bits n acc = if n = 0 then acc else bits (n lsr 1) (acc + 1) in
    bits v 0

let bucket_upper i = if i = 0 then 0 else (1 lsl i) - 1

type hist = {
  mutable count : int;
  mutable sum : int;
  mutable min_v : int;
  mutable max_v : int;
  buckets : int array;
}

type raw_span = { name : string; start_ns : int; dur_ns : int; domain : int }

type shard = {
  counters : (string, int ref) Hashtbl.t;
  hists : (string, hist) Hashtbl.t;
  mutable rev_spans : raw_span list;
}

let registry_mu = Mutex.create ()
let registry : shard list ref = ref []

let shard_key =
  Domain.DLS.new_key (fun () ->
      let s =
        {
          counters = Hashtbl.create 32;
          hists = Hashtbl.create 16;
          rev_spans = [];
        }
      in
      Mutex.lock registry_mu;
      registry := s :: !registry;
      Mutex.unlock registry_mu;
      s)

let shard () = Domain.DLS.get shard_key

let add name n =
  if Atomic.get enabled_flag then begin
    let s = shard () in
    match Hashtbl.find_opt s.counters name with
    | Some r -> r := !r + n
    | None -> Hashtbl.add s.counters name (ref n)
  end

let incr name = add name 1

let observe name v =
  if Atomic.get enabled_flag then begin
    let s = shard () in
    let h =
      match Hashtbl.find_opt s.hists name with
      | Some h -> h
      | None ->
          let h =
            {
              count = 0;
              sum = 0;
              min_v = max_int;
              max_v = min_int;
              buckets = Array.make nbuckets 0;
            }
          in
          Hashtbl.add s.hists name h;
          h
    in
    h.count <- h.count + 1;
    h.sum <- h.sum + v;
    if v < h.min_v then h.min_v <- v;
    if v > h.max_v then h.max_v <- v;
    let b = bucket_of v in
    let b = if b >= nbuckets then nbuckets - 1 else b in
    h.buckets.(b) <- h.buckets.(b) + 1
  end

let record_span name start_ns dur_ns =
  let s = shard () in
  s.rev_spans <-
    { name; start_ns; dur_ns; domain = (Domain.self () :> int) } :: s.rev_spans;
  observe name dur_ns

let span name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let t0 = Clock.now_ns () in
    Fun.protect ~finally:(fun () -> record_span name t0 (Clock.now_ns () - t0)) f
  end

(* ------------------------------------------------------------------ *)
(* Gauges                                                             *)

(* Last-write-wins point-in-time values (process RSS, arena bytes).
   Unlike counters these are set explicitly at sampling points — never
   from hot paths and never implicitly inside [snapshot], which keeps
   the determinism guarantee: two runs that sample at the same program
   points produce the same snapshot, and runs that never call
   [sample_memory] carry no machine-dependent values at all. *)
let gauges_mu = Mutex.create ()
let gauges : (string, int) Hashtbl.t = Hashtbl.create 16

let set_gauge name v =
  if Atomic.get enabled_flag then begin
    Mutex.lock gauges_mu;
    Hashtbl.replace gauges name v;
    Mutex.unlock gauges_mu
  end

let rss_bytes () =
  (* /proc/self/statm: size resident shared ... in pages. *)
  match
    In_channel.with_open_text "/proc/self/statm" In_channel.input_line
  with
  | Some line -> (
    match String.split_on_char ' ' line with
    | _ :: resident :: _ ->
      (try int_of_string resident * 4096 with _ -> 0)
    | _ -> 0)
  | None -> 0
  | exception _ -> 0

let sample_memory () =
  if Atomic.get enabled_flag then begin
    let st = Gc.quick_stat () in
    set_gauge "mem/rss_bytes" (rss_bytes ());
    set_gauge "mem/heap_bytes" (st.Gc.heap_words * 8);
    set_gauge "mem/top_heap_bytes" (st.Gc.top_heap_words * 8)
  end

let reset () =
  Mutex.lock registry_mu;
  List.iter
    (fun s ->
      Hashtbl.reset s.counters;
      Hashtbl.reset s.hists;
      s.rev_spans <- [])
    !registry;
  Mutex.unlock registry_mu;
  Mutex.lock gauges_mu;
  Hashtbl.reset gauges;
  Mutex.unlock gauges_mu

(* ------------------------------------------------------------------ *)
(* Snapshots                                                          *)

type histogram = {
  h_count : int;
  h_sum : int;
  h_min : int;
  h_max : int;
  h_buckets : (int * int) list;
}

type span_record = {
  sp_name : string;
  sp_start_ns : int;
  sp_dur_ns : int;
  sp_domain : int;
}

type snapshot = {
  counters : (string * int) list;
  histograms : (string * histogram) list;
  gauges : (string * int) list;
  spans : span_record list;
}

let snapshot () =
  Mutex.lock registry_mu;
  let shards = !registry in
  let counters = Hashtbl.create 32 in
  let hists : (string, hist) Hashtbl.t = Hashtbl.create 16 in
  let spans = ref [] in
  List.iter
    (fun (s : shard) ->
      Hashtbl.iter
        (fun name r ->
          match Hashtbl.find_opt counters name with
          | Some acc -> acc := !acc + !r
          | None -> Hashtbl.add counters name (ref !r))
        s.counters;
      Hashtbl.iter
        (fun name h ->
          match Hashtbl.find_opt hists name with
          | Some acc ->
              acc.count <- acc.count + h.count;
              acc.sum <- acc.sum + h.sum;
              if h.min_v < acc.min_v then acc.min_v <- h.min_v;
              if h.max_v > acc.max_v then acc.max_v <- h.max_v;
              Array.iteri (fun i n -> acc.buckets.(i) <- acc.buckets.(i) + n)
                h.buckets
          | None ->
              Hashtbl.add hists name
                {
                  count = h.count;
                  sum = h.sum;
                  min_v = h.min_v;
                  max_v = h.max_v;
                  buckets = Array.copy h.buckets;
                })
        s.hists;
      spans := List.rev_append s.rev_spans !spans)
    shards;
  Mutex.unlock registry_mu;
  let counters =
    Hashtbl.fold (fun name r acc -> (name, !r) :: acc) counters []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let histograms =
    Hashtbl.fold
      (fun name h acc ->
        let buckets = ref [] in
        for i = nbuckets - 1 downto 0 do
          if h.buckets.(i) > 0 then
            buckets := (bucket_upper i, h.buckets.(i)) :: !buckets
        done;
        ( name,
          {
            h_count = h.count;
            h_sum = h.sum;
            h_min = (if h.count = 0 then 0 else h.min_v);
            h_max = (if h.count = 0 then 0 else h.max_v);
            h_buckets = !buckets;
          } )
        :: acc)
      hists []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let spans =
    !spans
    |> List.map (fun r ->
           {
             sp_name = r.name;
             sp_start_ns = r.start_ns;
             sp_dur_ns = r.dur_ns;
             sp_domain = r.domain;
           })
    |> List.sort (fun a b ->
           match compare a.sp_start_ns b.sp_start_ns with
           | 0 -> String.compare a.sp_name b.sp_name
           | c -> c)
  in
  let gauges_l =
    Mutex.lock gauges_mu;
    let l = Hashtbl.fold (fun name v acc -> (name, v) :: acc) gauges [] in
    Mutex.unlock gauges_mu;
    List.sort (fun (a, _) (b, _) -> String.compare a b) l
  in
  { counters; histograms; gauges = gauges_l; spans }

(* ------------------------------------------------------------------ *)
(* Rendering                                                          *)

let pp_summary ppf snap =
  let open Format in
  if snap.counters <> [] then begin
    fprintf ppf "counters:@.";
    List.iter
      (fun (name, v) -> fprintf ppf "  %-40s %d@." name v)
      snap.counters
  end;
  if snap.gauges <> [] then begin
    fprintf ppf "gauges:@.";
    List.iter (fun (name, v) -> fprintf ppf "  %-40s %d@." name v) snap.gauges
  end;
  if snap.histograms <> [] then begin
    fprintf ppf "histograms:@.";
    List.iter
      (fun (name, h) ->
        let mean = if h.h_count = 0 then 0. else float h.h_sum /. float h.h_count in
        fprintf ppf "  %-40s n=%d sum=%d min=%d mean=%.1f max=%d@." name
          h.h_count h.h_sum h.h_min mean h.h_max)
      snap.histograms
  end;
  let by_name = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun sp ->
      match Hashtbl.find_opt by_name sp.sp_name with
      | Some (n, tot) -> Hashtbl.replace by_name sp.sp_name (n + 1, tot + sp.sp_dur_ns)
      | None ->
          Hashtbl.add by_name sp.sp_name (1, sp.sp_dur_ns);
          order := sp.sp_name :: !order)
    snap.spans;
  if !order <> [] then begin
    fprintf ppf "spans:@.";
    List.iter
      (fun name ->
        let n, tot = Hashtbl.find by_name name in
        fprintf ppf "  %-40s n=%d total=%.3fs@." name n (Clock.ns_to_s tot))
      (List.rev !order)
  end

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
      | _ -> '_')
    name

let to_prometheus snap =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (name, v) ->
      let m = "mdpriv_" ^ sanitize name ^ "_total" in
      Buffer.add_string buf (Printf.sprintf "# TYPE %s counter\n%s %d\n" m m v))
    snap.counters;
  List.iter
    (fun (name, v) ->
      let m = "mdpriv_" ^ sanitize name in
      Buffer.add_string buf (Printf.sprintf "# TYPE %s gauge\n%s %d\n" m m v))
    snap.gauges;
  List.iter
    (fun (name, h) ->
      let m = "mdpriv_" ^ sanitize name in
      Buffer.add_string buf (Printf.sprintf "# TYPE %s histogram\n" m);
      let cum = ref 0 in
      List.iter
        (fun (ub, n) ->
          cum := !cum + n;
          Buffer.add_string buf
            (Printf.sprintf "%s_bucket{le=\"%d\"} %d\n" m ub !cum))
        h.h_buckets;
      Buffer.add_string buf
        (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" m h.h_count);
      Buffer.add_string buf (Printf.sprintf "%s_sum %d\n" m h.h_sum);
      Buffer.add_string buf (Printf.sprintf "%s_count %d\n" m h.h_count))
    snap.histograms;
  Buffer.contents buf

let spans_to_jsonl snap =
  let buf = Buffer.create 1024 in
  List.iter
    (fun sp ->
      let j =
        Mdp_prelude.Json.Obj
          [
            ("name", Mdp_prelude.Json.Str sp.sp_name);
            ("start_ns", Mdp_prelude.Json.int sp.sp_start_ns);
            ("dur_ns", Mdp_prelude.Json.int sp.sp_dur_ns);
            ("domain", Mdp_prelude.Json.int sp.sp_domain);
          ]
      in
      Buffer.add_string buf (Mdp_prelude.Json.to_string ~indent:false j);
      Buffer.add_char buf '\n')
    snap.spans;
  Buffer.contents buf

let phase_table ~wall_s snap =
  (* Same-named phase spans are summed into one row (first-occurrence
     order): one-shot phases (explore, render) render as before, while
     repeating ones — phase/spill fires on every eviction burst — show
     their aggregate instead of hundreds of near-zero lines. *)
  let prefix = "phase/" in
  let plen = String.length prefix in
  let totals = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun sp ->
      if String.length sp.sp_name > plen && String.starts_with ~prefix sp.sp_name
      then begin
        let phase =
          String.sub sp.sp_name plen (String.length sp.sp_name - plen)
        in
        match Hashtbl.find_opt totals phase with
        | Some tot -> Hashtbl.replace totals phase (tot + sp.sp_dur_ns)
        | None ->
          Hashtbl.add totals phase sp.sp_dur_ns;
          order := phase :: !order
      end)
    snap.spans;
  List.rev_map
    (fun phase ->
      let s = Clock.ns_to_s (Hashtbl.find totals phase) in
      (phase, s, if wall_s > 0. then s /. wall_s else 0.))
    !order
