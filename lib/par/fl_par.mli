(** Domain-based parallel work queue for attack sweeps.

    A pool is a fixed set of worker domains pulling tasks from a shared
    queue.  One batch at a time is submitted through {!run} (or the
    {!map} / {!map_list} conveniences); results land by {e task index},
    so the output order is deterministic regardless of completion order,
    and a [jobs = 1] pool executes every task inline on the calling
    domain in index order — bit-for-bit the sequential behaviour.

    A task that raises is {!constructor:Failed}, and the failure cancels
    every task of the batch that has not started yet; those report
    {!constructor:Cancelled}.  Tasks have no deadline: long-running tasks
    such as SAT attacks enforce their own budgets internally.

    Observability: the pool emits [par.task.start] / [par.task.done]
    (plus [par.task.error], [par.task.cancelled] and [par.batch.done]) through {!Fl_obs}, each tagged with the pool name,
    task index and domain id, and keeps [par.*] counters.  {!Fl_obs}
    counters are striped per domain, so worker-side increments always
    merge into the global snapshot.

    Tasks must be self-contained: build circuits and views {e inside} the
    task (views are domain-local) and do not touch shared mutable state.
    Submitting to a pool from inside one of its own tasks would deadlock;
    {!run} (and so {!map} / {!map_list}) raises [Invalid_argument]
    instead (the queue is not re-entrant). *)

type t
(** A pool of worker domains.  Values of this type are not themselves
    domain-safe: submit batches from one domain at a time. *)

(** Outcome of one task, in task-index order. *)
type 'a outcome =
  | Done of 'a
  | Failed of string  (** raised; the exception text *)
  | Cancelled  (** skipped: an earlier task of the batch failed *)

(** Aggregate accounting of the most recent batch. *)
type batch_stats = {
  tasks : int;
  completed : int;
  failed : int;
  cancelled : int;
  task_seconds : float;  (** summed per-task wall time *)
  wall_seconds : float;  (** batch wall time; speedup = task/wall *)
}

(** [create ~jobs ()] builds a pool of width [jobs]: [jobs >= 2] spawns
    [jobs] worker domains, [jobs = 1] spawns none and runs every batch
    inline on the submitting domain (sequential semantics, no domain
    overhead).  [name] tags the pool's events and defaults to ["pool"].
    @raise Invalid_argument when [jobs < 1]. *)
val create : ?name:string -> jobs:int -> unit -> t

val jobs : t -> int

(** [run p tasks] executes every task and returns their outcomes by
    index.  Blocks until the whole batch settles. *)
val run : t -> (unit -> 'a) array -> 'a outcome array

(** [map p f xs] is [run p (fun () -> f x) per x]. *)
val map : t -> ('a -> 'b) -> 'a array -> 'b outcome array

val map_list : t -> ('a -> 'b) -> 'a list -> 'b outcome list

(** Accounting of the most recent finished batch (zeros before any). *)
val last_stats : t -> batch_stats

(** [get o] is the task's value.
    @raise Failure on [Failed] / [Cancelled]. *)
val get : 'a outcome -> 'a

(** [shutdown p] joins the worker domains.  Idempotent; the pool accepts
    no further batches. *)
val shutdown : t -> unit

(** [with_pool ~jobs f] is [f pool] with {!shutdown} guaranteed. *)
val with_pool : ?name:string -> jobs:int -> (t -> 'a) -> 'a
