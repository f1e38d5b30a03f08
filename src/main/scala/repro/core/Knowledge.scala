package repro.core

import scala.collection.mutable

/** A synonym rule lhs → rhs with closeness C(R) ∈ (0, 1] (paper Eq 2). */
final case class Rule(lhs: Vector[String], rhs: Vector[String], c: Double) extends Serializable {
  require(lhs.nonEmpty && rhs.nonEmpty, "rule sides must be non-empty")
  require(c > 0 && c <= 1, s"C(R) must be in (0,1], got $c")

  /** Max token count over both sides (the paper's per-rule k). */
  def maxTokens: Int = math.max(lhs.length, rhs.length)
}

/** Which of the three measures participate in the unified similarity.
  *
  * Table 8 / Figure 6 evaluate all seven non-empty combinations
  * (J, T, S, TJ, TS, JS, TJS).
  */
final case class MeasureSet(j: Boolean, s: Boolean, t: Boolean) extends Serializable {
  require(j || s || t, "at least one measure must be enabled")
  def label: String =
    (if (t) "T" else "") + (if (j) "J" else "") + (if (s) "S" else "")
}

object MeasureSet {
  val J: MeasureSet   = MeasureSet(j = true,  s = false, t = false)
  val S: MeasureSet   = MeasureSet(j = false, s = true,  t = false)
  val T: MeasureSet   = MeasureSet(j = false, s = false, t = true)
  val TJ: MeasureSet  = MeasureSet(j = true,  s = false, t = true)
  val JS: MeasureSet  = MeasureSet(j = true,  s = true,  t = false)
  val TS: MeasureSet  = MeasureSet(j = false, s = true,  t = true)
  val TJS: MeasureSet = MeasureSet(j = true,  s = true,  t = true)
  val all: Seq[MeasureSet] = Seq(J, T, S, TJ, JS, TS, TJS)
}

/** The knowledge base backing semantic similarity: a synonym rule set
  * plus a taxonomy tree, with the indexes used by segment enumeration
  * and pebble generation. Immutable and serialisable; Spark broadcasts it
  * to executors as [[Knowledge.Packed]].
  */
final class Knowledge(
    val rules: IndexedSeq[Rule],
    val taxonomy: Taxonomy,
) extends Serializable {

  /** Rule ids indexed by their lhs token sequence. */
  val byLhs: Map[Vector[String], Seq[Int]] =
    rules.indices.groupBy(i => rules(i).lhs).view.mapValues(_.toSeq).toMap

  /** Rule ids indexed by their rhs token sequence. */
  val byRhs: Map[Vector[String], Seq[Int]] =
    rules.indices.groupBy(i => rules(i).rhs).view.mapValues(_.toSeq).toMap

  /** The paper's k: max tokens on any side of a rule or entity name. */
  val maxRuleTokens: Int =
    if (rules.isEmpty) 1 else rules.iterator.map(_.maxTokens).max

  /** Longest token span that can form a non-singleton segment. */
  val maxSegmentTokens: Int =
    math.max(maxRuleTokens, taxonomy.maxNameTokens)

  def rule(i: Int): Rule = rules(i)

  /** Rules whose lhs OR rhs equals `span` (ids). */
  def rulesTouching(span: Vector[String]): Seq[Int] =
    (byLhs.getOrElse(span, Nil) ++ byRhs.getOrElse(span, Nil)).distinct
}

object Knowledge {
  /** The running example of the paper's Figure 1 — reused across tests. */
  def figure1: Knowledge = {
    val tax = Taxonomy.fromEdges(
      "wikipedia",
      Seq(
        "food"          -> "wikipedia",
        "coffee"        -> "food",
        "cake"          -> "food",
        "coffee drinks" -> "coffee",
        "latte"         -> "coffee drinks",
        "espresso"      -> "coffee drinks",
        "apple cake"    -> "cake",
      ),
    )
    val rules = Vector(
      Rule(Vector("cake"), Vector("gateau"), 1.0),
      Rule(Vector("coffee", "shop"), Vector("cafe"), 1.0),
    )
    new Knowledge(rules, tax)
  }

  /** A knowledge base with no rules and a root-only taxonomy (syntactic-only joins). */
  def empty: Knowledge =
    new Knowledge(Vector.empty, new Taxonomy(Array(0), Vector(Vector("⊥root⊥"))))

  /** A knowledge base as a few flat arrays, the form Spark broadcasts:
    * Java serialisation and Spark's size estimate walk a handful of
    * arrays instead of every node name, rule and index of the object
    * graph. Tokens are ids into one token table; node names are spans
    * of `nameTokens` from `nameFrom(n)` to `nameFrom(n + 1)`, and rules
    * spans of `ruleTokens` (lhs then rhs) with the lhs `lhsLength(r)`
    * long.
    */
  final class Packed private (
      tokens: Array[String],
      parent: Array[Int],
      nameFrom: Array[Int],
      nameTokens: Array[Int],
      ruleFrom: Array[Int],
      ruleTokens: Array[Int],
      lhsLength: Array[Int],
      closeness: Array[Double],
  ) extends Serializable {

    /** The knowledge, rebuilt with its constructors in the original
      * order on first use in each JVM, so every index (`byName`'s first
      * definition wins, `byLhs`, `byRhs`, `depth`) comes out identical.
      */
    @transient lazy val knowledge: Knowledge = {
      def span(ids: Array[Int], from: Int, until: Int): Vector[String] =
        Vector.tabulate(until - from)(i => tokens(ids(from + i)))
      val names = Vector.tabulate(parent.length)(n => span(nameTokens, nameFrom(n), nameFrom(n + 1)))
      val rules = Vector.tabulate(closeness.length) { r =>
        val mid = ruleFrom(r) + lhsLength(r)
        Rule(span(ruleTokens, ruleFrom(r), mid), span(ruleTokens, mid, ruleFrom(r + 1)), closeness(r))
      }
      new Knowledge(rules, new Taxonomy(parent, names))
    }
  }

  object Packed {

    /** Packs `k`; costs a pass over its names and rules, so it is done
      * per broadcast, never when a [[Knowledge]] is built.
      */
    def apply(k: Knowledge): Packed = {
      val ids = mutable.HashMap.empty[String, Int]
      val tokens = mutable.ArrayBuffer.empty[String]
      def flatten(spans: IndexedSeq[Seq[String]]): (Array[Int], Array[Int]) = {
        val from = new Array[Int](spans.length + 1)
        val flat = mutable.ArrayBuilder.make[Int]
        for ((s, i) <- spans.iterator.zipWithIndex) {
          for (t <- s) flat += ids.getOrElseUpdate(t, { tokens += t; tokens.length - 1 })
          from(i + 1) = from(i) + s.length
        }
        (from, flat.result())
      }
      val tax = k.taxonomy
      val (nameFrom, nameTokens) = flatten(tax.names)
      val (ruleFrom, ruleTokens) = flatten(k.rules.map(r => r.lhs ++ r.rhs))
      new Packed(tokens.toArray, tax.parent, nameFrom, nameTokens, ruleFrom, ruleTokens,
        k.rules.iterator.map(_.lhs.length).toArray, k.rules.iterator.map(_.c).toArray)
    }
  }
}
