(* Fixed-size domain pool over a mutex/condition work queue.

   The moving parts are deliberately few: one queue of erased [unit -> unit]
   jobs (each job owns its slot of a batch's result array — which is what
   makes batch result ordering deterministic), and two conditions: "queue
   gained work" for the workers and "batch drained" for the submitter.
   Cancellation and the Fl_obs events live in the per-task wrapper, so
   the inline jobs=1 path and the worker path run the exact same code.

   Submitting to a pool from inside one of its own tasks would deadlock —
   every worker could end up waiting on work only a worker can run — so
   it fails fast with Invalid_argument: worker domains register their ids
   at spawn, and the jobs=1 inline path marks the submitting domain for
   the duration of the task. *)

type 'a outcome =
  | Done of 'a
  | Failed of string
  | Cancelled

type batch_stats = {
  tasks : int;
  completed : int;
  failed : int;
  cancelled : int;
  task_seconds : float;
  wall_seconds : float;
}

let zero_stats =
  {
    tasks = 0;
    completed = 0;
    failed = 0;
    cancelled = 0;
    task_seconds = 0.0;
    wall_seconds = 0.0;
  }

type t = {
  pname : string;
  jobs : int;
  mutex : Mutex.t;
  has_work : Condition.t;
  batch_done : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable outstanding : int;  (* jobs of the current batch not yet finished *)
  mutable in_batch : bool;
  mutable stopped : bool;
  mutable workers : unit Domain.t list;
  mutable worker_ids : int list;  (* registered at spawn, for the re-entrancy guard *)
  mutable inline_domain : int;  (* domain running a jobs=1 inline task, -1 if none *)
  mutable last : batch_stats;
}

let c_tasks = Fl_obs.Counter.make "par.tasks"
let c_failures = Fl_obs.Counter.make "par.failures"
let c_cancelled = Fl_obs.Counter.make "par.cancelled"
let c_batches = Fl_obs.Counter.make "par.batches"

(* Queue wait: batch submission to task start, in microseconds (scale
   1e-6, so summaries read in seconds).  Deep-telemetry guarded — see
   DESIGN.md §4f. *)
let h_queue_wait = Fl_obs.Hist.make ~scale:1e-6 "par.queue_wait_s"

let jobs p = p.jobs
let last_stats p = p.last

let locked p f =
  Mutex.lock p.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock p.mutex) f

(* Workers block on [has_work]; a job is run outside the lock and the
   wrapper never raises.  Batch accounting (outstanding / batch_done)
   lives inside the batch job wrapper, not here. *)
let rec worker_loop p =
  Mutex.lock p.mutex;
  while Queue.is_empty p.queue && not p.stopped do
    Condition.wait p.has_work p.mutex
  done;
  if Queue.is_empty p.queue then Mutex.unlock p.mutex (* stopped: exit *)
  else begin
    let job = Queue.pop p.queue in
    Mutex.unlock p.mutex;
    job ();
    worker_loop p
  end

(* Re-entrancy guard: submitting to a pool from inside one of its own
   tasks deadlocks.  Worker ids are read under the pool mutex; a worker
   is necessarily registered before it runs any task. *)
let guard p fn =
  let self = (Domain.self () :> int) in
  let inside =
    locked p (fun () -> p.inline_domain = self || List.mem self p.worker_ids)
  in
  if inside then
    invalid_arg
      (fn ^ ": called from inside a task of pool \"" ^ p.pname
     ^ "\" (the queue is not re-entrant)")

let create ?(name = "pool") ~jobs () =
  if jobs < 1 then invalid_arg "Fl_par.create: jobs must be >= 1";
  let p =
    {
      pname = name;
      jobs;
      mutex = Mutex.create ();
      has_work = Condition.create ();
      batch_done = Condition.create ();
      queue = Queue.create ();
      outstanding = 0;
      in_batch = false;
      stopped = false;
      workers = [];
      worker_ids = [];
      inline_domain = -1;
      last = zero_stats;
    }
  in
  if jobs > 1 then
    p.workers <-
      List.init jobs (fun _ ->
          Domain.spawn (fun () ->
              locked p (fun () ->
                  p.worker_ids <- (Domain.self () :> int) :: p.worker_ids);
              worker_loop p));
  p

let shutdown p =
  let workers =
    locked p (fun () ->
        let ws = p.workers in
        p.stopped <- true;
        p.workers <- [];
        Condition.broadcast p.has_work;
        ws)
  in
  List.iter Domain.join workers

let with_pool ?name ~jobs f =
  let p = create ?name ~jobs () in
  Fun.protect ~finally:(fun () -> shutdown p) (fun () -> f p)

(* Mutable accounting of the batch in flight, guarded by [p.mutex]. *)
type accounting = {
  mutable a_completed : int;
  mutable a_failed : int;
  mutable a_cancelled : int;
  mutable a_task_seconds : float;
}

let task_fields p i =
  [
    "pool", Fl_obs.String p.pname;
    "task", Fl_obs.Int i;
    "domain", Fl_obs.Int (Domain.self () :> int);
  ]

(* The per-task wrapper: cancellation check, result-slot write, events,
   accounting.  Runs on a worker domain (jobs > 1) or inline on the
   submitter (jobs = 1); must never raise — a raise here would kill a
   worker and hang the batch. *)
let exec_task p ~acct ~cancelled ~submitted ~results i f =
  Fl_obs.Counter.incr c_tasks;
  if Fl_obs.deep_enabled () then
    Fl_obs.Hist.record_time h_queue_wait (Unix.gettimeofday () -. submitted);
  if Atomic.get cancelled then begin
    Fl_obs.Counter.incr c_cancelled;
    if Fl_obs.enabled () then
      Fl_obs.emit "par.task.cancelled" ~fields:(task_fields p i);
    results.(i) <- Cancelled;
    locked p (fun () -> acct.a_cancelled <- acct.a_cancelled + 1)
  end
  else begin
    if Fl_obs.enabled () then
      Fl_obs.emit "par.task.start" ~fields:(task_fields p i);
    let t0 = Unix.gettimeofday () in
    let verdict = match f () with v -> Ok v | exception e -> Error e in
    let elapsed = Unix.gettimeofday () -. t0 in
    (match verdict with
     | Ok v ->
       results.(i) <- Done v;
       if Fl_obs.enabled () then
         Fl_obs.emit "par.task.done"
           ~fields:(task_fields p i @ [ "elapsed_s", Fl_obs.Float elapsed ]);
       locked p (fun () ->
           acct.a_completed <- acct.a_completed + 1;
           acct.a_task_seconds <- acct.a_task_seconds +. elapsed)
     | Error e ->
       (* Mark and cancel everything not yet started. *)
       let msg = Printexc.to_string e in
       Fl_obs.Counter.incr c_failures;
       Atomic.set cancelled true;
       results.(i) <- Failed msg;
       if Fl_obs.enabled () then
         Fl_obs.emit "par.task.error"
           ~fields:
             (task_fields p i
              @ [
                  "error", Fl_obs.String msg;
                  "elapsed_s", Fl_obs.Float elapsed;
                ]);
       locked p (fun () ->
           acct.a_failed <- acct.a_failed + 1;
           acct.a_task_seconds <- acct.a_task_seconds +. elapsed))
  end

let run p fs =
  guard p "Fl_par.run";
  let n = Array.length fs in
  let results = Array.make n Cancelled in
  if n = 0 then (p.last <- { zero_stats with wall_seconds = 0.0 }; results)
  else begin
    let cancelled = Atomic.make false in
    let acct =
      {
        a_completed = 0;
        a_failed = 0;
        a_cancelled = 0;
        a_task_seconds = 0.0;
      }
    in
    Fl_obs.Counter.incr c_batches;
    let t0 = Unix.gettimeofday () in
    let job i () =
      exec_task p ~acct ~cancelled ~submitted:t0 ~results i fs.(i)
    in
    if p.jobs = 1 then begin
      (* Inline: index order, no queue — bit-for-bit sequential. *)
      p.inline_domain <- (Domain.self () :> int);
      Fun.protect
        ~finally:(fun () -> p.inline_domain <- -1)
        (fun () ->
          for i = 0 to n - 1 do
            job i ()
          done)
    end
    else begin
      locked p (fun () ->
          if p.stopped then failwith "Fl_par.run: pool is shut down";
          if p.in_batch then failwith "Fl_par.run: batch already in flight";
          p.in_batch <- true;
          for i = 0 to n - 1 do
            Queue.push
              (fun () ->
                job i ();
                locked p (fun () ->
                    p.outstanding <- p.outstanding - 1;
                    if p.outstanding = 0 then Condition.broadcast p.batch_done))
              p.queue
          done;
          p.outstanding <- n;
          Condition.broadcast p.has_work);
      locked p (fun () ->
          while p.outstanding > 0 do
            Condition.wait p.batch_done p.mutex
          done;
          p.in_batch <- false)
    end;
    let wall = Unix.gettimeofday () -. t0 in
    p.last <-
      {
        tasks = n;
        completed = acct.a_completed;
        failed = acct.a_failed;
        cancelled = acct.a_cancelled;
        task_seconds = acct.a_task_seconds;
        wall_seconds = wall;
      };
    if Fl_obs.enabled () then
      Fl_obs.emit "par.batch.done"
        ~fields:
          [
            "pool", Fl_obs.String p.pname;
            "tasks", Fl_obs.Int n;
            "completed", Fl_obs.Int acct.a_completed;
            "failed", Fl_obs.Int acct.a_failed;
            "cancelled", Fl_obs.Int acct.a_cancelled;
            "task_seconds", Fl_obs.Float acct.a_task_seconds;
            "wall_seconds", Fl_obs.Float wall;
          ];
    results
  end

let map p f xs = run p (Array.map (fun x () -> f x) xs)
let map_list p f xs = Array.to_list (map p f (Array.of_list xs))

let get = function
  | Done v -> v
  | Failed msg -> failwith ("Fl_par: task failed: " ^ msg)
  | Cancelled -> failwith "Fl_par: task cancelled"
