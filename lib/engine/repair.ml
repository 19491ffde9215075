module Stats = Prelude.Stats

type fault_kind = Crash | Leave

type fault = { victim : int; kind : fault_kind; injected_at : float }

type record = {
  fault : fault;
  regions : string list;
  detected_at : float;
  first_notify : float;
  last_notify : float;
  notifies : int;
  sweeps : int;
  republishes : int;
  regraft_ms : float list;
}

let repaired r = r.notifies > 0
let detection_ms r = if repaired r then r.detected_at -. r.fault.injected_at else Float.nan
let first_notify_ms r = if repaired r then r.first_notify -. r.fault.injected_at else Float.nan
let repair_ms r = if repaired r then r.last_notify -. r.fault.injected_at else Float.nan

type dist = { n : int; p50 : float; p95 : float; p99 : float; max : float }

let dist_of samples =
  if Array.length samples = 0 then { n = 0; p50 = 0.0; p95 = 0.0; p99 = 0.0; max = 0.0 }
  else
    {
      n = Array.length samples;
      p50 = Stats.percentile samples 50.0;
      p95 = Stats.percentile samples 95.0;
      p99 = Stats.percentile samples 99.0;
      max = Array.fold_left Float.max neg_infinity samples;
    }

type report = {
  records : record list;
  repair : dist;
  detection : dist;
  regraft : dist;
  unrepaired : int;
}

(* Mutable accumulator per fault, frozen into a record at the end. *)
type acc = {
  a_fault : fault;
  mutable a_detected : float;
  mutable a_first : float;
  mutable a_last : float;
  mutable a_notifies : int;
  mutable a_sweeps : int;
  mutable a_republishes : int;
  mutable a_regrafts : float list;  (* reversed *)
}

let analyze spans =
  let spans =
    List.stable_sort
      (fun (a : Trace.span) (b : Trace.span) -> compare (a.Trace.at, a.Trace.seq) (b.Trace.at, b.Trace.seq))
      spans
  in
  (* Pass 1: resolved faults (in order) and each victim's region set. *)
  let accs = ref [] (* reversed *) in
  let by_victim : (int, acc list) Hashtbl.t = Hashtbl.create 16 in
  let regions_of : (int, (string, unit) Hashtbl.t) Hashtbl.t = Hashtbl.create 64 in
  (* A fault span with a victim ([node >= 0]) is resolved; the plan-level
     ones [Faults] emits have none. *)
  let add_fault (s : Trace.span) kind =
    let victim = s.Trace.node in
    let a =
      {
        a_fault = { victim; kind; injected_at = s.Trace.at };
        a_detected = Float.nan;
        a_first = Float.nan;
        a_last = Float.nan;
        a_notifies = 0;
        a_sweeps = 0;
        a_republishes = 0;
        a_regrafts = [];
      }
    in
    accs := a :: !accs;
    Hashtbl.replace by_victim victim
      (a :: Option.value ~default:[] (Hashtbl.find_opt by_victim victim))
  in
  List.iter
    (fun (s : Trace.span) ->
      match s.Trace.kind with
      | Trace.Fault_inject Trace.Crash when s.Trace.node >= 0 -> add_fault s Crash
      | Trace.Fault_inject Trace.Leave when s.Trace.node >= 0 -> add_fault s Leave
      | Trace.Map_publish { region } when s.Trace.peer >= 0 ->
        let set =
          match Hashtbl.find_opt regions_of s.Trace.peer with
          | Some set -> set
          | None ->
            let set = Hashtbl.create 8 in
            Hashtbl.replace regions_of s.Trace.peer set;
            set
        in
        Hashtbl.replace set (Trace.region_label region) ()
      | _ -> ())
    spans;
  let accs = List.rev !accs in
  let victim_regions v =
    match Hashtbl.find_opt regions_of v with Some set -> set | None -> Hashtbl.create 0
  in
  (* Attribute a span at time [at] about victim [v] to the latest fault of
     [v] injected at or before [at] (by_victim lists are newest-first). *)
  let owner_of ~victim ~at =
    match Hashtbl.find_opt by_victim victim with
    | None -> None
    | Some l -> List.find_opt (fun a -> a.a_fault.injected_at <= at) l
  in
  (* Pass 2: departure notifications about a victim are its repair
     traffic; a tree regraft that lost the victim as parent is the
     victim's structural repair (Mcast emits the span when the orphaned
     subtree re-attaches; [dur] is the orphanhood duration). *)
  List.iter
    (fun (s : Trace.span) ->
      match s.Trace.kind with
      | Trace.Mcast_regraft { lost_parent } ->
        (match owner_of ~victim:lost_parent ~at:s.Trace.at with
        | Some a -> a.a_regrafts <- s.Trace.dur :: a.a_regrafts
        | None -> ())
      | Trace.Notify { change = Trace.Departed; entry; region } ->
        (match owner_of ~victim:entry ~at:s.Trace.at with
        | Some a ->
          let set = victim_regions entry in
          if Hashtbl.length set = 0 || Hashtbl.mem set (Trace.region_label region) then begin
            let sent = s.Trace.at and delivered = s.Trace.at +. s.Trace.dur in
            a.a_notifies <- a.a_notifies + 1;
            if Float.is_nan a.a_detected || sent < a.a_detected then a.a_detected <- sent;
            if Float.is_nan a.a_first || delivered < a.a_first then a.a_first <- delivered;
            if Float.is_nan a.a_last || delivered > a.a_last then a.a_last <- delivered
          end
        | None -> ())
      | _ -> ())
    spans;
  (* Pass 3: sweeps waited on (injection .. detection] and republishes
     into the victim's regions up to full repair. *)
  List.iter
    (fun (s : Trace.span) ->
      match s.Trace.kind with
      | Trace.Ttl_sweep _ ->
        List.iter
          (fun a ->
            if
              a.a_notifies > 0
              && s.Trace.at > a.a_fault.injected_at
              && s.Trace.at <= a.a_detected
            then a.a_sweeps <- a.a_sweeps + 1)
          accs
      | Trace.Map_publish { region } when s.Trace.peer >= 0 ->
        let region = Trace.region_label region in
        List.iter
          (fun a ->
            if
              a.a_notifies > 0
              && s.Trace.peer <> a.a_fault.victim
              && s.Trace.at > a.a_fault.injected_at
              && s.Trace.at <= a.a_last
              && Hashtbl.mem (victim_regions a.a_fault.victim) region
            then a.a_republishes <- a.a_republishes + 1)
          accs
      | _ -> ())
    spans;
  let records =
    List.map
      (fun a ->
        {
          fault = a.a_fault;
          regions =
            List.sort compare
              (Hashtbl.fold (fun r () l -> r :: l) (victim_regions a.a_fault.victim) []);
          detected_at = a.a_detected;
          first_notify = a.a_first;
          last_notify = a.a_last;
          notifies = a.a_notifies;
          sweeps = a.a_sweeps;
          republishes = a.a_republishes;
          regraft_ms = List.rev a.a_regrafts;
        })
      accs
  in
  let done_ = List.filter repaired records in
  {
    records;
    repair = dist_of (Array.of_list (List.map repair_ms done_));
    detection = dist_of (Array.of_list (List.map detection_ms done_));
    regraft = dist_of (Array.of_list (List.concat_map (fun r -> r.regraft_ms) records));
    unrepaired = List.length records - List.length done_;
  }

let record_metrics ?(labels = []) m report =
  let h name = Metrics.histogram m ~labels name in
  let h_repair = h "repair_latency_ms"
  and h_detect = h "repair_detection_ms"
  and h_first = h "repair_first_notify_ms" in
  List.iter
    (fun r ->
      if repaired r then begin
        Metrics.observe h_repair (repair_ms r);
        Metrics.observe h_detect (detection_ms r);
        Metrics.observe h_first (first_notify_ms r)
      end)
    report.records;
  let c name v = Metrics.add (Metrics.counter m ~labels name) v in
  c "repair_faults" (List.length report.records);
  c "repair_repaired" (List.length report.records - report.unrepaired);
  c "repair_unrepaired" report.unrepaired;
  (* Tree-regraft instruments only when the span stream had any: a run
     without a dissemination tree keeps its instrument set unchanged. *)
  if report.regraft.n > 0 then begin
    let h_regraft = h "repair_regraft_ms" in
    List.iter (fun r -> List.iter (Metrics.observe h_regraft) r.regraft_ms) report.records;
    c "repair_regrafts" report.regraft.n
  end

(* ------------------------------------------------------------------ *)
(* Adaptive policy                                                     *)
(* ------------------------------------------------------------------ *)

type policy = {
  target_ms : float;
  headroom : float;
  window : int;
  sample_pct : float;
  step : float;
  min_refresh : float;
  max_refresh : float;
  min_sweep : float;
  max_sweep : float;
  min_digest : float;
  max_digest : float;
}

let default_policy =
  {
    target_ms = 25_000.0;
    headroom = 0.5;
    window = 3;
    sample_pct = 100.0;
    step = 2.0;
    min_refresh = 2_500.0;
    max_refresh = 120_000.0;
    min_sweep = 500.0;
    max_sweep = 60_000.0;
    min_digest = 0.0;
    max_digest = 0.0;
  }

let tunes_digest p = p.max_digest > 0.0

type controller = {
  policy : policy;
  mutable refresh : float;
  mutable sweep : float;
  mutable digest : float;
  mutable pending : float list;  (* current window, newest first *)
  mutable adjustments : int;
  mutable observed : int;
}

let clamp ~lo ~hi v = Float.min hi (Float.max lo v)

let controller ?(refresh = 200_000.0) ?(sweep = 100_000.0) ?(digest = 0.0) policy =
  if not (policy.target_ms > 0.0) then invalid_arg "Repair.controller: target_ms must be > 0";
  if not (policy.headroom > 0.0 && policy.headroom <= 1.0) then
    invalid_arg "Repair.controller: headroom must be in (0,1]";
  if policy.window < 1 then invalid_arg "Repair.controller: window must be >= 1";
  if not (policy.sample_pct > 0.0 && policy.sample_pct <= 100.0) then
    invalid_arg "Repair.controller: sample_pct must be in (0,100]";
  if not (policy.step > 1.0) then invalid_arg "Repair.controller: step must be > 1";
  if not (0.0 < policy.min_refresh && policy.min_refresh <= policy.max_refresh) then
    invalid_arg "Repair.controller: need 0 < min_refresh <= max_refresh";
  if not (0.0 < policy.min_sweep && policy.min_sweep <= policy.max_sweep) then
    invalid_arg "Repair.controller: need 0 < min_sweep <= max_sweep";
  if tunes_digest policy && not (0.0 < policy.min_digest && policy.min_digest <= policy.max_digest)
  then invalid_arg "Repair.controller: need 0 < min_digest <= max_digest (or max_digest = 0)";
  {
    policy;
    refresh = clamp ~lo:policy.min_refresh ~hi:policy.max_refresh refresh;
    sweep = clamp ~lo:policy.min_sweep ~hi:policy.max_sweep sweep;
    digest =
      (if tunes_digest policy then clamp ~lo:policy.min_digest ~hi:policy.max_digest digest
       else digest);
    pending = [];
    adjustments = 0;
    observed = 0;
  }

let refresh_period c = c.refresh
let sweep_period c = c.sweep
let digest_window c = if tunes_digest c.policy then Some c.digest else None
let adjustments c = c.adjustments
let observed c = c.observed

let observe c sample =
  c.observed <- c.observed + 1;
  c.pending <- sample :: c.pending;
  if List.length c.pending < c.policy.window then false
  else begin
    let p = c.policy in
    (* The decision statistic: the window's [sample_pct] percentile.  At
       the default 100 this is the window max — computed as the max so
       the arithmetic (and hence every downstream metric byte) is
       identical to the pre-percentile controller. *)
    let level =
      if p.sample_pct >= 100.0 then List.fold_left Float.max neg_infinity c.pending
      else Stats.percentile (Array.of_list c.pending) p.sample_pct
    in
    c.pending <- [];
    (* Over target: refresh less often (a crash victim's entries are then
       staler and expire sooner), sweep more often (expiry is noticed
       sooner) and shrink the digest window (notifications coalesce for
       less long).  Under the headroom: step back toward the cheap end. *)
    let refresh', sweep', digest' =
      if level > p.target_ms then (c.refresh *. p.step, c.sweep /. p.step, c.digest /. p.step)
      else if level < p.headroom *. p.target_ms then
        (c.refresh /. p.step, c.sweep *. p.step, c.digest *. p.step)
      else (c.refresh, c.sweep, c.digest)
    in
    let refresh' = clamp ~lo:p.min_refresh ~hi:p.max_refresh refresh'
    and sweep' = clamp ~lo:p.min_sweep ~hi:p.max_sweep sweep'
    and digest' =
      if tunes_digest p then clamp ~lo:p.min_digest ~hi:p.max_digest digest' else c.digest
    in
    let changed = refresh' <> c.refresh || sweep' <> c.sweep || digest' <> c.digest in
    if changed then begin
      c.refresh <- refresh';
      c.sweep <- sweep';
      c.digest <- digest';
      c.adjustments <- c.adjustments + 1
    end;
    changed
  end
