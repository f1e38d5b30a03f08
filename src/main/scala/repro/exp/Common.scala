package repro.exp

import repro.core._
import repro.data.TextGen

/** Precision / recall / F-measure triple (Table 8/13 cells). */
final case class PRF(p: Double, r: Double, f: Double) {
  override def toString: String = f"$p%.2f $r%.2f $f%.2f"
}

object PRF {
  /** From (predictedSimilar, labelledSimilar) pairs; F = 2PR/(P+R). */
  def of(preds: Seq[(Boolean, Boolean)]): PRF = {
    val tp = preds.count { case (pr, ac) => pr && ac }
    val fp = preds.count { case (pr, ac) => pr && !ac }
    val fn = preds.count { case (pr, ac) => !pr && ac }
    val p = if (tp + fp == 0) 0.0 else tp.toDouble / (tp + fp)
    val r = if (tp + fn == 0) 0.0 else tp.toDouble / (tp + fn)
    val f = if (p + r == 0) 0.0 else 2 * p * r / (p + r)
    PRF(p, r, f)
  }
}

/** Plain-text table rendering shared by benches and jobs. */
object Fmt {
  def table(header: Seq[String], rows: Seq[Seq[String]]): String = {
    val all = header +: rows
    val widths = header.indices.map(c => all.map(_(c).length).max)
    def line(r: Seq[String]): String =
      r.zip(widths).map { case (cell, w) => cell.padTo(w, ' ') }.mkString("  ")
    (line(header) +: line(header.map(h => "-" * h.length)) +: rows.map(line)).mkString("\n")
  }
}

/** Shared generation contexts (built once per JVM — deterministic). */
object Contexts {
  lazy val med: TextGen.GenContext = TextGen.context(TextGen.MedLite)
  lazy val wiki: TextGen.GenContext = TextGen.context(TextGen.WikiLite)
  def of(kind: TextGen.Kind): TextGen.GenContext = kind match {
    case TextGen.MedLite  => med
    case TextGen.WikiLite => wiki
  }
}
