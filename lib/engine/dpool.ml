(* Worker domains block on per-mailbox condition variables; the
   coordinator dispatches closures and waits on a per-batch latch.  All
   cross-domain publication happens through the mailbox and latch
   mutexes, so task results written by a worker are visible to the
   coordinator once the latch opens (no data races: each result slot is
   written by exactly one domain and read only after the latch). *)

type mailbox = { mu : Mutex.t; cond : Condition.t; jobs : (unit -> unit) Queue.t }

type t = {
  domains : int;
  boxes : mailbox array;  (* length domains - 1; slot w > 0 -> boxes.(w - 1) *)
}

(* Re-entrancy guard: a task calling back into the pool would wait on a
   mailbox that can only drain after the task itself returns.  Degrade
   nested dispatch to inline execution instead. *)
let in_worker : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

(* Workers live for the process: every pool is interned. *)
let worker_loop box =
  Domain.DLS.set in_worker true;
  while true do
    Mutex.lock box.mu;
    while Queue.is_empty box.jobs do
      Condition.wait box.cond box.mu
    done;
    let job = Queue.pop box.jobs in
    Mutex.unlock box.mu;
    job ()
  done

let max_domains = 128

let create ~domains =
  let boxes =
    Array.init (domains - 1) (fun _ ->
        { mu = Mutex.create (); cond = Condition.create (); jobs = Queue.create () })
  in
  Array.iter (fun b -> ignore (Domain.spawn (fun () -> worker_loop b))) boxes;
  { domains; boxes }

let size t = t.domains

let post box job =
  Mutex.lock box.mu;
  Queue.push job box.jobs;
  Condition.signal box.cond;
  Mutex.unlock box.mu

(* One batch's completion latch. *)
type latch = { lmu : Mutex.t; lcond : Condition.t; mutable left : int }

let latch_done l =
  Mutex.lock l.lmu;
  l.left <- l.left - 1;
  if l.left = 0 then Condition.signal l.lcond;
  Mutex.unlock l.lmu

let latch_wait l =
  Mutex.lock l.lmu;
  while l.left > 0 do
    Condition.wait l.lcond l.lmu
  done;
  Mutex.unlock l.lmu

let run_inline n f =
  if n = 0 then [||]
  else begin
    let out = Array.make n (f 0) in
    for i = 1 to n - 1 do
      out.(i) <- f i
    done;
    out
  end

let run t n f =
  if n < 0 then invalid_arg "Dpool.run: negative task count";
  if n = 0 then [||]
  else if t.domains = 1 || n = 1 || Domain.DLS.get in_worker then run_inline n f
  else begin
    let results = Array.make n None in
    let errors = Array.make n None in
    let remote = ref 0 in
    for i = 0 to n - 1 do
      if i mod t.domains <> 0 then incr remote
    done;
    let latch = { lmu = Mutex.create (); lcond = Condition.create (); left = !remote } in
    let exec i =
      (match f i with
      | v -> results.(i) <- Some v
      | exception e -> errors.(i) <- Some e)
    in
    for i = 0 to n - 1 do
      let w = i mod t.domains in
      if w <> 0 then
        post t.boxes.(w - 1) (fun () ->
            exec i;
            latch_done latch)
    done;
    (* The coordinator's own share (slot 0) runs while workers drain. *)
    for i = 0 to n - 1 do
      if i mod t.domains = 0 then exec i
    done;
    latch_wait latch;
    Array.iter (function Some e -> raise e | None -> ()) errors;
    Array.map
      (function Some v -> v | None -> assert false (* every slot ran or raised *))
      results
  end

(* ---- interned pools & the ambient default ---- *)

let interned : (int, t) Hashtbl.t = Hashtbl.create 4
let interned_mu = Mutex.create ()

let get ~domains =
  if domains < 1 || domains > max_domains then
    invalid_arg "Dpool.get: domains out of [1,128]";
  Mutex.protect interned_mu (fun () ->
      match Hashtbl.find_opt interned domains with
      | Some p -> p
      | None ->
        let p = create ~domains in
        Hashtbl.replace interned domains p;
        p)

let env_domains () =
  match Sys.getenv_opt "TOPOAWARE_DOMAINS" with
  | None -> 1
  | Some s ->
    (match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 && n <= max_domains -> n
    | Some _ | None -> 1)

let default_override : t option ref = ref None

let set_default o = default_override := o

let default () =
  match !default_override with Some p -> p | None -> get ~domains:(env_domains ())
