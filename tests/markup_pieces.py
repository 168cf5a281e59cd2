"""Markup pieces that the segmentation differentials splice into pages.

The tests draw from them with hypothesis, and ``scripts/differential.py``
with ``random.Random``; this module imports only affret, so both run on an
interpreter without site-packages.
"""

from affret.segmenter import BREAK_MARK

# Tag-soup pieces in six equally likely groups, so that segmenting elements
# open inside one another often enough to reach the implicit <p> close, and
# declarations, marked sections, processing instructions and comments, closed
# or not, meet one another and the tags. The sixth group holds the edges of
# the markup the walk reads itself; a soup may end in a lone "<" or "&am".
SEGMENTING_OPENS = ["<p>", "<div>", "<table>"]
SEGMENTING_CLOSES = ["</p>", "</div>", "</table>"]
OTHER_TAG_PIECES = [
    "<a href='#'>", "</a>",
    "<h2>", "</h2>", "<li>", "</li>", "<tr>", "<td>", "</td>", "<br>", "<hr/>",
    "<img src='x.png'>", "<input>",
    "<script>", "</script>", "<style>", "</style>", "<head>", "</head>", "<title>", "</title>",
    "<span>", "</span>", "<b>", "</b>", "</em>", "</tr>",
]
TEXT_PIECES = [
    "\u00a0", "\u2003", " \u00a0\u2003 ", "\n",
    "&#x41;", "&amp;", "&#160;", "&nbsp;", "&#xE000;", f"x{BREAK_MARK}y",
    "goa", "beach", " temple walk ", "sand.",
]
DECLARATION_PIECES = [
    "<!x>", "<!x ", "<!DOCTYPE html>", "<![foo[ y ]]>", "<![foo[ ", "<![a]>", "<![ ", "<![1", "<![",
    "<![CDATA[ c ]]>", "<![CDATA[ ", "<![if]>", "<?x y>", "<?x ", "<!-- c -->", "<!-- ", "]]>", "-->", ">",
]
EDGE_PIECES = [
    # tags: case, whitespace the parsers disagree on, blanks around "=", bare and quoted values
    "<P>", "<DIV CLASS=x>", "<div\x0bclass=x>", "<div\xa0class=x>", "<div\u2003class=x>", "<div class=x\xa0id=y>",
    '<p class = "x">', "<a href=/x/>", "<a href=x/>", "<a href=x />", "<a x=y/>", "<br/>", "<p/>", "<a x==y>",
    '<a href="a>b">', '<a href="a&amp;b">', "<a title='a<b'>", "<a x='1'y=2>", "<a x/>", "<a/b>",
    # end tags
    "</div >", "</ div>", "</DIV>", "</>", "</p x>",
    # raw text
    "<script>a<b</script>", "<script>x</scriptx>", "</scriptx>", "<SCRIPT>x</SCRIPT>", "<script/>", "<script>x</script >",
    "<title>a&amp;b</title>", "<textarea>a&b</textarea>", "<xmp>a&lt;b</xmp>", "<title>t</title>", "<plaintext>",
    "<noscript>n</noscript>", "<iframe>f</iframe>", "<style>p{}</style>", "<script type='t'>if (a && b) {}</script>",
    # comments and doctypes
    "<!-- a - b -->", "<!-->", "<!--->", "<!---->", "<!-- x --!>", "<!-- x -- >", "<!doctype html>", "<!DocType>",
]
SOUP_GROUPS = (SEGMENTING_OPENS, SEGMENTING_CLOSES, OTHER_TAG_PIECES, TEXT_PIECES, DECLARATION_PIECES, EDGE_PIECES)
SOUP_ENDS = ["", "", "", "<", "&am"]

# Pieces that are in the walk's own subset, alone and joined in any order.
SUBSET_PIECES = [
    "<!DOCTYPE html>", '<!doctype HTML PUBLIC "-//W3C//DTD HTML 4.01//EN">', "<!-- nav -->", "<!---->",
    "<p>", "<P>", '<div class="nav">', "<div class = 'x' id=main>", "<table border=1>",
    "</p>", "</div>", "</DIV>", "</table>",
    '<a href="/offers">', "<A HREF='#top' title=\"go\">", "</a>", "<br>", "<br/>", "<br />", "<hr/>",
    '<img src="x.png" alt="">', "<input disabled>", "<h2>", "</h2>", "<li>", "<tr>", "<td>", "</td>",
    "<span>", "</span>", "<head>", "</head>",
    "<script>var a = 1 && b;</script>", '<SCRIPT type="t"></Script>', "<style>p{}</style>",
    "<title>Goa beaches</title>", "<textarea>notes</textarea>", "<noscript>n</noscript>",
    "goa", " beach ", "&amp;", "&#x41;", "sand.", "\u00a0", "\n",
]
