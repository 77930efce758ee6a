"""Points-to analysis tests."""

from repro.analysis.points_to import analyze_points_to
from tests.conftest import to_simple

NODE = "struct node { int v; struct node *next; };"


def pts(source, func, var):
    simple = to_simple(source)
    return analyze_points_to(simple).points_to(func, var)


def heap_sites(locations):
    return {loc[1].split(":")[0] for loc in locations
            if loc[0] == "heap"}


class TestBasics:
    def test_malloc_creates_site(self):
        locations = pts(NODE + """
            int f() {
                struct node *p;
                p = (struct node *) malloc(sizeof(struct node));
                return 0;
            }
        """, "f", "p")
        assert len(locations) == 1
        assert next(iter(locations))[0] == "heap"

    def test_copy_propagates(self):
        source = NODE + """
            int f() {
                struct node *p; struct node *q;
                p = (struct node *) malloc(sizeof(struct node));
                q = p;
                return 0;
            }
        """
        assert pts(source, "f", "q") == pts(source, "f", "p")

    def test_distinct_sites_distinct(self):
        source = NODE + """
            int f() {
                struct node *p; struct node *q;
                p = (struct node *) malloc(sizeof(struct node));
                q = (struct node *) malloc(sizeof(struct node));
                return 0;
            }
        """
        simple = to_simple(source)
        result = analyze_points_to(simple)
        assert not result.may_alias_objects("f", "p", "f", "q")

    def test_field_store_then_load(self):
        source = NODE + """
            int f() {
                struct node *p; struct node *q; struct node *r;
                p = (struct node *) malloc(sizeof(struct node));
                q = (struct node *) malloc(sizeof(struct node));
                p->next = q;
                r = p->next;
                return 0;
            }
        """
        assert pts(source, "f", "r") == pts(source, "f", "q")

    def test_recursive_list_cyclic_site(self):
        source = NODE + """
            int f(int n) {
                struct node *head; struct node *p;
                int i;
                head = NULL;
                for (i = 0; i < n; i++) {
                    p = (struct node *) malloc(sizeof(struct node));
                    p->next = head;
                    head = p;
                }
                p = head->next;
                return 0;
            }
        """
        # All list cells come from one site; p reaches it through next.
        assert heap_sites(pts(source, "f", "p")) == {"f"}

    def test_global_address(self):
        locations = pts("""
            int cell;
            int f() { int *p; p = &cell; return *p; }
        """, "f", "p")
        assert ("global", "cell") in locations

    def test_field_addr_conservative(self):
        source = """
            struct inner { int a; };
            struct outer { struct inner payload; };
            int f() {
                struct outer *p; struct inner *q;
                p = (struct outer *) malloc(sizeof(struct outer));
                q = &(p->payload);
                return 0;
            }
        """
        simple = to_simple(source)
        result = analyze_points_to(simple)
        assert result.may_alias_objects("f", "p", "f", "q")


class TestInterprocedural:
    def test_param_binding(self):
        source = NODE + """
            int use(struct node *arg) { return arg->v; }
            int f() {
                struct node *p;
                p = (struct node *) malloc(sizeof(struct node));
                return use(p);
            }
        """
        simple = to_simple(source)
        result = analyze_points_to(simple)
        assert result.points_to("use", "arg") == result.points_to("f", "p")

    def test_return_flow(self):
        source = NODE + """
            struct node *make() {
                struct node *p;
                p = (struct node *) malloc(sizeof(struct node));
                return p;
            }
            int f() { struct node *q; q = make(); return 0; }
        """
        simple = to_simple(source)
        result = analyze_points_to(simple)
        assert result.points_to("f", "q") == result.points_to("make", "p")

    def test_recursive_function_converges(self):
        source = NODE + """
            struct node *build(int n) {
                struct node *p;
                if (n == 0) return NULL;
                p = (struct node *) malloc(sizeof(struct node));
                p->next = build(n - 1);
                return p;
            }
            int f() { struct node *t; t = build(3); return 0; }
        """
        locations = pts(source, "f", "t")
        assert heap_sites(locations) == {"build"}

    def test_two_callers_merge(self):
        # Context-insensitive: both callers' sites flow into the callee.
        source = NODE + """
            int use(struct node *arg) { return arg->v; }
            int f() {
                struct node *a; struct node *b;
                a = (struct node *) malloc(sizeof(struct node));
                b = (struct node *) malloc(sizeof(struct node));
                use(a);
                use(b);
                return 0;
            }
        """
        simple = to_simple(source)
        result = analyze_points_to(simple)
        merged = result.points_to("use", "arg")
        assert result.points_to("f", "a") <= merged
        assert result.points_to("f", "b") <= merged


class TestBlkmovFlow:
    def test_struct_copy_carries_pointer_fields(self):
        source = NODE + """
            int f() {
                struct node buf;
                struct node *p;
                struct node *q;
                struct node *r;
                p = (struct node *) malloc(sizeof(struct node));
                q = (struct node *) malloc(sizeof(struct node));
                p->next = q;
                buf = *p;
                r = buf.next;
                return 0;
            }
        """
        simple = to_simple(source)
        result = analyze_points_to(simple)
        assert result.points_to("f", "q") <= result.points_to("f", "r")

    def test_global_endpoint_is_not_shadowed(self):
        """A global pointer as a blkmov endpoint is the global's holder:
        the copy must not leave an empty local one that hides it."""
        source = NODE + """
            struct node *g;
            int f() {
                struct node buf;
                struct node *p;
                p = (struct node *) malloc(sizeof(struct node));
                g = p;
                buf = *g;
                *g = buf;
                return 0;
            }
        """
        result = analyze_points_to(to_simple(source))
        assert result.points_to("f", "g") == result.points_to("f", "p")
        assert result.points_to("f", "g")
        assert result.may_alias_objects("f", "g", "f", "p")


class TestRulesNoProgramReaches:
    """Rules no Olden or generated program exercises: each test fails
    if its rule is dropped."""

    def test_a_blkmov_into_a_pointer_links_the_pointees_fields(self):
        """``*p = buf`` where ``p`` gains its object only by a copy (so
        after the statement is collected): the object still receives
        ``buf``'s fields."""
        source = NODE + """
            int f() {
                struct node buf;
                struct node *t; struct node *p; struct node *s;
                struct node *q; struct node *r;
                t = (struct node *) malloc(sizeof(struct node));
                p = t;
                s = (struct node *) malloc(sizeof(struct node));
                q = (struct node *) malloc(sizeof(struct node));
                s->next = q;
                buf = *s;
                *p = buf;
                r = p->next;
                return 0;
            }
        """
        result = analyze_points_to(to_simple(source))
        assert result.points_to("f", "q")
        assert result.points_to("f", "q") <= result.points_to("f", "r")

    def test_a_struct_variable_field_carries_a_pointer(self):
        """``sv.next = p`` then ``q = sv.next``: ``q`` points where
        ``p`` does."""
        source = NODE + """
            int f() {
                struct node sv;
                struct node *p; struct node *q;
                p = (struct node *) malloc(sizeof(struct node));
                sv.next = p;
                q = sv.next;
                return 0;
            }
        """
        result = analyze_points_to(to_simple(source))
        assert result.points_to("f", "p")
        assert result.points_to("f", "q") == result.points_to("f", "p")


class TestUnknown:
    def test_an_empty_set_may_alias_anything(self):
        source = NODE + """
            int f(struct node *p) {
                struct node *q;
                q = (struct node *) malloc(sizeof(struct node));
                return p->v + q->v;
            }
        """
        result = analyze_points_to(to_simple(source))
        assert not result.points_to("f", "p")
        assert result.may_alias_objects("f", "p", "f", "q")
        assert result.may_alias_objects("f", "q", "f", "p")

    def test_a_local_hides_a_global_of_the_same_name(self):
        source = NODE + """
            struct node *g;
            int f() {
                struct node *g;
                return 0;
            }
            int main() {
                g = (struct node *) malloc(sizeof(struct node));
                return f();
            }
        """
        result = analyze_points_to(to_simple(source))
        assert result.points_to("main", "g")
        assert not result.points_to("f", "g")
